//! The batched kind's task grain.
//!
//! [`EngineKind::Batched`](crate::engine::EngineKind::Batched) selects the
//! direct method with a coarser unit of scheduling: the farm hands out
//! tasks of `width` consecutive instances instead of one. Each replica is
//! stepped by the scalar [`SsaEngine`](crate::ssa::SsaEngine) of its own
//! instance — same RNG stream, same draw discipline (see [`crate::rng`]) —
//! so a replica's trajectory never depends on the span it travels in.
//! [`batch_spans`] is the one chunking rule every back-end shares.
//!
//! The [`kernels`] submodule is the crate's propensity-row kernel layer,
//! re-exported as `gillespie::kernels`; it outlived the lockstep engine it
//! was written for, and every tier's rows now use it.

pub mod kernels;

/// Chunks the instance range `first .. first + count` into batch spans of
/// at most `width` replicas: `(first_instance, width)` pairs in instance
/// order, the last span possibly narrower. This is the single chunking
/// rule of the batched kind — the runner, the shard workers and the traced
/// benchmark all derive their tasks from it, so a replica's batch
/// membership (and hence nothing at all, thanks to per-instance RNG
/// streams) never depends on the execution back-end.
///
/// # Panics
///
/// Panics if `width` is zero (rejected earlier by config validation).
pub fn batch_spans(first: u64, count: u64, width: usize) -> Vec<(u64, usize)> {
    assert!(width >= 1, "batch width must be >= 1");
    let mut spans = Vec::new();
    let mut i = first;
    let end = first + count;
    while i < end {
        let w = (width as u64).min(end - i) as usize;
        spans.push((i, w));
        i += w as u64;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineKind};
    use crate::ssa::{SampleClock, SsaEngine};
    use cwc::model::Model;
    use std::sync::Arc;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn schlogl_like() -> Arc<Model> {
        let mut m = Model::new("s");
        let x = m.species("X");
        m.rule("auto")
            .consumes("X", 2)
            .produces("X", 3)
            .rate(0.03)
            .build()
            .unwrap();
        m.rule("tri")
            .consumes("X", 3)
            .produces("X", 2)
            .rate(1e-4)
            .build()
            .unwrap();
        m.rule("in").produces("X", 1).rate(200.0).build().unwrap();
        m.rule("out").consumes("X", 1).rate(3.5).build().unwrap();
        m.initial.add_atoms(x, 250);
        m.observe("X", x);
        Arc::new(m)
    }

    /// The replicas of the batched kind's tasks over instances `first ..
    /// first + count`, chunked by [`batch_spans`] at `width`: replica `r`
    /// of the span starting at `f` is built for instance `f + r`.
    fn batch_replicas(
        model: &Arc<Model>,
        base_seed: u64,
        first: u64,
        count: u64,
        width: usize,
    ) -> Vec<Engine> {
        let kind = EngineKind::batched(width).unwrap();
        batch_spans(first, count, width)
            .into_iter()
            .flat_map(|(f, w)| f..f + w as u64)
            .map(|instance| kind.build(Arc::clone(model), base_seed, instance).unwrap())
            .collect()
    }

    /// Drives the batched kind's replicas through an irregular quantum
    /// schedule and asserts each one's sample stream, time, event count
    /// and final state equal the scalar engine of its instance run to the
    /// horizon in one go.
    fn assert_batch_matches_scalar(
        model: Arc<Model>,
        base_seed: u64,
        first: u64,
        width: usize,
        t_end: f64,
        period: f64,
    ) {
        let quanta: Vec<f64> = [0.17, 0.4, 0.61, 0.87, 1.0]
            .iter()
            .map(|f| f * t_end)
            .collect();
        // Two and a half tasks' worth of instances: full spans and a
        // narrower last one.
        let count = (5 * width as u64).div_ceil(2);
        let mut replicas = batch_replicas(&model, base_seed, first, count, width);
        assert_eq!(replicas.len() as u64, count);
        for (r, replica) in replicas.iter_mut().enumerate() {
            let instance = first + r as u64;
            assert_eq!(replica.instance(), instance);
            assert_eq!(replica.kind(), EngineKind::Ssa, "replica {r}");
            let mut clock = SampleClock::new(0.0, period);
            let mut samples = Vec::new();
            for &q in &quanta {
                samples.extend(replica.advance_quantum(q, &mut clock).samples);
            }
            let mut scalar = SsaEngine::new(Arc::clone(&model), base_seed, instance);
            let mut clock = SampleClock::new(0.0, period);
            let mut expected = Vec::new();
            scalar.run_sampled(t_end, &mut clock, |t, v| expected.push((t, v.to_vec())));
            assert_eq!(samples, expected, "replica {r} samples diverged");
            assert_eq!(replica.events(), scalar.steps(), "replica {r} steps");
            assert_eq!(replica.observe(), scalar.observe(), "replica {r}");
            assert_eq!(replica.time(), scalar.time(), "replica {r} time");
        }
    }

    #[test]
    fn batch_spans_cover_the_range_in_order() {
        assert_eq!(batch_spans(0, 7, 3), vec![(0, 3), (3, 3), (6, 1)]);
        assert_eq!(batch_spans(4, 2, 8), vec![(4, 2)]);
        assert_eq!(batch_spans(0, 6, 3), vec![(0, 3), (3, 3)]);
        assert_eq!(batch_spans(5, 0, 3), Vec::<(u64, usize)>::new());
    }

    #[test]
    fn single_channel_batch_matches_scalar_bit_for_bit() {
        assert_batch_matches_scalar(decay_model(40, 1.0), 42, 0, 5, 3.0, 0.25);
    }

    #[test]
    fn multi_channel_batch_matches_scalar_bit_for_bit() {
        assert_batch_matches_scalar(schlogl_like(), 2024, 0, 6, 1.0, 0.1);
    }

    #[test]
    fn nonzero_first_instance_matches_the_shifted_scalar_instances() {
        assert_batch_matches_scalar(schlogl_like(), 7, 13, 3, 0.5, 0.1);
    }

    #[test]
    fn exhausted_replica_reports_negative_zero_a0() {
        for mut replica in batch_replicas(&decay_model(3, 5.0), 1, 0, 2, 2) {
            let r = replica.instance();
            replica.run_until(100.0);
            let Engine::Ssa(engine) = &replica else {
                panic!("replica {r} is not the direct method");
            };
            let a0 = engine.total_propensity();
            assert_eq!(a0.to_bits(), (-0.0f64).to_bits(), "replica {r}: {a0}");
            assert_eq!(replica.observe(), vec![0]);
        }
    }

    /// `decay` with 15 top-level `A` plus an inert `cell` holding 4 more,
    /// observed through every [`ObservableSite`]: everywhere, top only,
    /// inside `cell`, and `AtLabel(TOP)` (the root again).
    ///
    /// [`ObservableSite`]: cwc::model::ObservableSite
    fn inert_compartment_model(top: u64) -> Arc<Model> {
        use cwc::model::ObservableSite;
        use cwc::species::Label;
        let mut m = Model::new("inert");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, top);
        let cell = m.label("cell");
        m.initial.add_compartment(cwc::term::Compartment::new(
            cell,
            cwc::multiset::Multiset::new(),
            cwc::term::Term::from_atoms(cwc::multiset::Multiset::from([(a, 4)])),
        ));
        m.observe("A", a);
        m.observe_at("A_top", a, ObservableSite::TopOnly);
        m.observe_at("A_cell", a, ObservableSite::AtLabel(cell));
        m.observe_at("A_root", a, ObservableSite::AtLabel(Label::TOP));
        Arc::new(m)
    }

    #[test]
    fn inert_compartments_contribute_constant_observable_offsets() {
        // Flat rules leave initial-term compartments untouched, so every
        // engine kind must report what `eval_observables` reports on the
        // full term: the four inert `A` stay in `Everywhere` and in
        // `AtLabel(cell)`, and `AtLabel(TOP)` follows the root like
        // `TopOnly` — on all four kinds, in every phase of the hybrid.
        use crate::engine::EngineKind;
        let check = |kind: &str, time: f64, v: &[u64]| {
            let top = v[1];
            assert_eq!(v, [top + 4, top, 4, top], "{kind} at t = {time}");
        };
        // 15 molecules keep the hybrid exact; 20 000 take it through
        // leap → exact as the population decays.
        for top in [15u64, 20_000] {
            let model = inert_compartment_model(top);
            for kind in [
                EngineKind::Ssa,
                EngineKind::AdaptiveTau { epsilon: 0.05 },
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold: 8.0,
                },
                EngineKind::Batched { width: 3 },
            ] {
                let mut engine = kind.build(Arc::clone(&model), 11, 0).unwrap();
                let name = kind.name();
                assert_eq!(engine.observe(), [top + 4, top, 4, top], "{name} at t = 0");
                let mut clock = SampleClock::new(0.0, 0.5);
                let mut seen = 0;
                for t in [0.7, 3.0, 12.0] {
                    engine.run_sampled(t, &mut clock, |ts, v| {
                        check(name, ts, v);
                        seen += 1;
                    });
                    check(name, t, &engine.observe());
                }
                assert_eq!(seen, 25, "{name}");
            }
        }
    }

    #[test]
    fn at_label_top_observable_follows_the_root_in_a_batch() {
        // `AtLabel(TOP)` reads the root atoms, which flat rules rewrite:
        // a replica must track them like the scalar engine, not freeze the
        // initial count.
        use cwc::model::ObservableSite;
        let mut m = Model::new("root");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 50);
        m.observe_at(
            "A_root",
            a,
            ObservableSite::AtLabel(cwc::species::Label::TOP),
        );
        let model = Arc::new(m);
        assert_batch_matches_scalar(Arc::clone(&model), 5, 0, 4, 1.0, 0.25);
        let mut replica = batch_replicas(&model, 5, 0, 1, 1).remove(0);
        replica.run_until(1.0);
        assert!(replica.observe()[0] < 50, "root count never moved");
    }

    #[test]
    #[should_panic(expected = "batch width must be >= 1")]
    fn zero_width_batch_panics() {
        let _ = batch_spans(0, 4, 0);
    }
}
