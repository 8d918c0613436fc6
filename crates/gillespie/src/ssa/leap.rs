//! The leap policy of the direct method: tau-leaping engaged when
//! propensities stratify — the engine behind
//! [`EngineKind::Hybrid`](crate::engine::EngineKind::Hybrid).
//!
//! Tau-leaping only pays off while propensities are large enough that a
//! leap fires many reactions; near-absorbing states, small populations and
//! cold starts are exact-SSA territory. An [`SsaEngine`] built with
//! [`SsaEngine::with_leap`] runs both regimes and switches between them
//! from the committed state (the regime split of Cao, Gillespie and
//! Petzold, J. Chem. Phys. 124, 2006):
//!
//! - **One state.** The committed state is the engine's own dense core
//!   (a leaping model is flat by construction): its `u64` count vector,
//!   the incrementally maintained propensity row and the engine's one
//!   clock. Both phases read it and the policy keeps no copy, so no phase
//!   decides which state is current.
//! - **Exact phase** — the engine's own direct-method loop, driven in
//!   fixed segments of [`EXACT_SEGMENT`] reactions between switch
//!   decisions.
//! - **Leap phase** — Poisson leaps over the same count vector, with the
//!   leap length picked by the Cao–Gillespie–Petzold bound (`epsilon`
//!   knob, shared with [`crate::adaptive`]). A leap's candidate counts are
//!   signed, so an overshoot shows up as a negative value; a committed
//!   leap is written back into the dense core (a counts copy plus one row
//!   recompute).
//! - **The switch.** At each decision point the policy computes the CGP
//!   leap `τ(x)` of the committed state and reads its total propensity
//!   `a0(x)` off the maintained row: when `τ·a0 ≥ threshold` — at least
//!   `threshold` expected firings per leap — the propensities have
//!   stratified enough that leaping wins, and the engine leaps; otherwise
//!   it runs the next exact segment. Decisions are pure functions of the
//!   committed state, so they consume no randomness and cannot depend on
//!   quantum boundaries.
//!
//! Like adaptive tau-leaping, a leap policy takes every flat model,
//! whatever its kinetic laws (the CGP bound covers them all, see
//! [`crate::flat`]), and [`SsaEngine::with_leap`] rejects compartment
//! models ([`FlatModelError`]); the exact phase alone could drive them,
//! but the leap phase's state reduction could not.
//!
//! ## Quantum-exact execution and the RNG streams
//!
//! The exact phase consumes the instance's primary RNG stream exactly
//! like the engine without a policy — until the first switch, a leaping
//! trajectory is *bit-for-bit identical* to plain SSA with the same seeds
//! (a unit test pins this). The leap phase draws from a dedicated salted
//! stream ([`crate::rng`] documents the discipline), so engaging leaps
//! never perturbs the exact stream. Pending exact events and pending
//! leaps both survive quantum boundaries, and exact segments end on
//! *reaction counts*, never on quantum horizons — so trajectories are
//! slicing-invariant like every other engine behind
//! [`Engine`](crate::engine::Engine).

use std::sync::Arc;

use cwc::model::Model;

use super::{Core, DenseCore, SampleClock, SsaEngine, StepOutcome};
use crate::deps::ModelDeps;
use crate::flat::{flat_form, poisson, CgpScratch, FlatModelError};
use crate::rng::{sim_rng, SimRng};

/// Reactions fired per exact segment between switch decisions.
const EXACT_SEGMENT: u64 = 64;

/// Salt mixed into the base seed for the leap phase's dedicated RNG
/// stream (see module docs).
const LEAP_STREAM_SALT: u64 = 0x4859_4252_4944_5331;

/// A Poisson leap drawn but not yet committed.
#[derive(Debug, Clone)]
struct PendingLeap {
    /// Species counts after the leap.
    counts: Vec<u64>,
    /// Absolute time at which the leap commits.
    end: f64,
    /// Firings the leap applies when committed.
    firings: u64,
}

/// Where the engine is between committed transitions.
#[derive(Debug, Clone)]
enum Phase {
    /// Next call decides exact-vs-leap from the committed state.
    Decide,
    /// Running the direct method until the step counter reaches `until`.
    Exact {
        /// Step count that ends the segment.
        until: u64,
    },
    /// A leap is drawn and waiting for the horizon to pass its end.
    Leap(PendingLeap),
}

/// A leap policy and its phase state; the committed state it steps is
/// the engine's dense core.
#[derive(Debug, Clone)]
pub(super) struct Leap {
    /// Relative-propensity-change bound ε of the leap phase.
    epsilon: f64,
    /// Expected firings per candidate leap above which the engine leaves
    /// the exact phase.
    threshold: f64,
    phase: Phase,
    /// True from the first leap after an exact segment (or construction)
    /// until the next exact segment starts — what counts a switch.
    leaping: bool,
    /// Dedicated leap-phase RNG stream.
    rng: SimRng,
    /// Firings committed by leaps.
    firings: u64,
    leaps: u64,
    /// Phase switches committed (exact→leap and leap→exact).
    switches: u64,
    /// Reusable accumulators for the per-decision CGP bound.
    cgp_scratch: CgpScratch,
    /// Reusable signed candidate counts of a leap being drawn.
    cand_buf: Vec<i64>,
    /// The last committed leap's counts vector, recycled by the next draw.
    counts_buf: Vec<u64>,
}

/// The engine's dense core — the committed state of a leaping engine.
fn dense(engine: &SsaEngine) -> &DenseCore {
    match &engine.core {
        Core::Dense(dense) => dense,
        Core::Tree(_) => unreachable!("a leap policy is only set on a flat model"),
    }
}

impl SsaEngine {
    /// Creates an engine with a leap policy (the hybrid kind): the
    /// direct method on the dense core, with CGP-sized Poisson leaps of
    /// bound `epsilon` whenever a leap is worth at least `threshold`
    /// expected firings (see the module docs). The knobs are checked by
    /// [`EngineKind::validate`](crate::engine::EngineKind::validate), the
    /// way every caller reaches this.
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when any rule uses compartments or
    /// applies below the top level.
    pub fn with_leap(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
        epsilon: f64,
        threshold: f64,
    ) -> Result<Self, FlatModelError> {
        flat_form(&model, &deps, "the hybrid SSA/tau engine")?;
        let mut engine = Self::with_deps(model, deps, base_seed, instance);
        engine.leap = Some(Box::new(Leap {
            epsilon,
            threshold,
            phase: Phase::Decide,
            leaping: false,
            rng: sim_rng(base_seed ^ LEAP_STREAM_SALT, instance),
            firings: 0,
            leaps: 0,
            switches: 0,
            cgp_scratch: CgpScratch::default(),
            cand_buf: Vec::new(),
            counts_buf: Vec::new(),
        }));
        Ok(engine)
    }

    /// The leap policy's `(epsilon, threshold)`, or `None` for the plain
    /// direct method.
    pub fn leap_policy(&self) -> Option<(f64, f64)> {
        self.leap.as_ref().map(|l| (l.epsilon, l.threshold))
    }

    /// Total reaction firings: [`steps`](SsaEngine::steps) plus the
    /// firings committed by leaps.
    pub fn firings(&self) -> u64 {
        self.steps + self.leap.as_ref().map_or(0, |l| l.firings)
    }

    /// Committed Poisson leaps (0 without a leap policy).
    pub fn leaps(&self) -> u64 {
        self.leap.as_ref().map_or(0, |l| l.leaps)
    }

    /// Committed phase switches, in either direction (0 without a leap
    /// policy).
    pub fn switches(&self) -> u64 {
        self.leap.as_ref().map_or(0, |l| l.switches)
    }

    /// Executes one committed transition free-running (no horizon): one
    /// reaction, or — under a leap policy — one leap. Returns `(dt,
    /// firings)`; `(0.0, 0)` when the state is absorbing.
    pub fn step_transition(&mut self) -> (f64, u64) {
        let Some(mut leap) = self.leap.take() else {
            return match self.step() {
                StepOutcome::Fired { dt, .. } => (dt, 1),
                StepOutcome::Exhausted => (0.0, 0),
            };
        };
        let out = leap.step_transition(self);
        self.leap = Some(leap);
        out
    }
}

impl Leap {
    /// Draws a CGP-sized Poisson leap from the committed state, halving
    /// on negativity. Returns `None` when (after shrinking) the leap is no
    /// longer worth `threshold` firings — the caller runs an exact segment
    /// instead.
    ///
    /// The Poisson sweep walks the enabled slots of the row in slot order
    /// — one draw per enabled reaction, the leap-stream discipline
    /// [`crate::rng`] documents.
    fn draw_leap(
        &mut self,
        dense: &DenseCore,
        time: f64,
        a0: f64,
        mut tau: f64,
    ) -> Option<PendingLeap> {
        loop {
            if !(tau.is_finite() && tau * a0 >= self.threshold) {
                return None;
            }
            self.cand_buf.clear();
            self.cand_buf.extend(dense.counts.iter().map(|&c| c as i64));
            let mut firings = 0u64;
            for (j, a) in dense.row.active_entries() {
                let k = poisson(&mut self.rng, a * tau);
                firings += k;
                for &(i, d) in &dense.flat.delta[j] {
                    self.cand_buf[i] += d * k as i64;
                }
            }
            if self.cand_buf.iter().all(|&c| c >= 0) {
                let mut next = std::mem::take(&mut self.counts_buf);
                next.clear();
                next.extend(self.cand_buf.iter().map(|&c| c as u64));
                return Some(PendingLeap {
                    counts: next,
                    end: time + tau,
                    firings,
                });
            }
            tau /= 2.0;
        }
    }

    /// The switch decision: from the committed state, enter a leap or the
    /// next exact segment. Consumes leap-stream randomness only when a
    /// leap is actually drawn; never touches the primary stream.
    fn decide(&mut self, engine: &SsaEngine) {
        let dense = dense(engine);
        let a0 = dense.row.total();
        let tau = if a0 > 0.0 {
            dense.flat.cgp_tau(
                &mut self.cgp_scratch,
                &dense.counts,
                dense.row.props(),
                self.epsilon,
                dense.row.active_entries().map(|(j, _)| j),
            )
        } else {
            0.0
        };
        if a0 > 0.0 && tau.is_finite() && tau * a0 >= self.threshold {
            if let Some(p) = self.draw_leap(dense, engine.time, a0, tau) {
                if !self.leaping {
                    self.switches += 1; // exact → leap
                }
                self.leaping = true;
                self.phase = Phase::Leap(p);
                return;
            }
        }
        // Exact segment (also the absorbing case: the direct method
        // fast-forwards and keeps emitting samples).
        if self.leaping {
            self.switches += 1; // leap → exact
            self.leaping = false;
        }
        self.phase = Phase::Exact {
            until: engine.steps + EXACT_SEGMENT,
        };
    }

    /// Commits the pending leap: writes its counts back into the dense
    /// core, which recomputes its row from them. Returns its firings.
    fn commit_leap(&mut self, engine: &mut SsaEngine) -> u64 {
        let Phase::Leap(p) = std::mem::replace(&mut self.phase, Phase::Decide) else {
            unreachable!("only a pending leap commits");
        };
        engine.reset_flat_state(&p.counts, p.end);
        self.counts_buf = p.counts;
        self.firings += p.firings;
        self.leaps += 1;
        p.firings
    }

    /// [`SsaEngine::run_sampled`] under this policy: exact segments
    /// through the engine's bounded loop, pending leaps held across the
    /// horizon, samples reporting the committed state in force.
    pub(super) fn run_sampled<F>(
        &mut self,
        engine: &mut SsaEngine,
        t_end: f64,
        clock: &mut SampleClock,
        mut on_sample: F,
    ) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut fired = 0;
        loop {
            match &self.phase {
                Phase::Decide => self.decide(engine),
                Phase::Exact { until } => {
                    let until = *until;
                    let budget = until.saturating_sub(engine.steps);
                    if budget == 0 {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    fired += engine.run_sampled_bounded(t_end, clock, budget, &mut on_sample);
                    if engine.steps >= until {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    // Horizon reached mid-segment (pending event held by
                    // the engine) or state absorbed: quantum over.
                    return fired;
                }
                Phase::Leap(p) => {
                    let t_next = p.end;
                    let horizon = t_next.min(t_end);
                    let mut values = std::mem::take(&mut engine.sample_buf);
                    while let Some(ts) = clock.peek() {
                        if ts > horizon {
                            break;
                        }
                        engine.observe_into(&mut values);
                        on_sample(ts, &values);
                        clock.advance();
                    }
                    engine.sample_buf = values;
                    if t_next > t_end {
                        if engine.time < t_end {
                            engine.time = t_end;
                        }
                        return fired;
                    }
                    fired += self.commit_leap(engine);
                }
            }
        }
    }

    /// [`SsaEngine::step_transition`] under this policy.
    fn step_transition(&mut self, engine: &mut SsaEngine) -> (f64, u64) {
        let t0 = engine.time;
        loop {
            match &self.phase {
                Phase::Decide => self.decide(engine),
                Phase::Exact { until } => {
                    let until = *until;
                    if engine.steps >= until {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    match engine.step() {
                        StepOutcome::Fired { .. } => {
                            if engine.steps >= until {
                                self.phase = Phase::Decide;
                            }
                            return (engine.time - t0, 1);
                        }
                        StepOutcome::Exhausted => return (0.0, 0),
                    }
                }
                Phase::Leap(_) => {
                    let firings = self.commit_leap(engine);
                    return (engine.time - t0, firings);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc::model::Model;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn birth_death_model(birth: f64, death: f64, n0: u64) -> Arc<Model> {
        let mut m = Model::new("bd");
        let a = m.species("A");
        m.rule("birth")
            .produces("A", 1)
            .rate(birth)
            .build()
            .unwrap();
        m.rule("death")
            .consumes("A", 1)
            .rate(death)
            .build()
            .unwrap();
        m.initial.add_atoms(a, n0);
        m.observe("A", a);
        Arc::new(m)
    }

    /// A leaping engine with the policy `(epsilon, threshold)`.
    fn leaping(
        model: Arc<Model>,
        seed: u64,
        instance: u64,
        epsilon: f64,
        threshold: f64,
    ) -> Result<SsaEngine, FlatModelError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        SsaEngine::with_leap(model, deps, seed, instance, epsilon, threshold)
    }

    /// A leaping engine at ε 0.03, threshold 16: the policy these tests
    /// were calibrated on.
    fn hybrid(model: Arc<Model>, seed: u64, instance: u64) -> SsaEngine {
        leaping(model, seed, instance, 0.03, 16.0).unwrap()
    }

    fn counts(e: &SsaEngine) -> &[u64] {
        &dense(e).counts
    }

    fn leap_firings(e: &SsaEngine) -> u64 {
        e.leap.as_ref().unwrap().firings
    }

    #[test]
    fn rejects_compartment_models_naming_rule_and_engine() {
        let mut m = Model::new("c");
        m.rule("enter")
            .matches_comp("cell", &[], &[])
            .keeps(0, &[], &[("A", 1)])
            .rate(1.0)
            .build()
            .unwrap();
        let err = leaping(Arc::new(m), 0, 0, 0.03, 16.0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`enter`"), "{msg}");
        assert!(msg.contains("hybrid"), "{msg}");
    }

    #[test]
    fn small_models_never_switch_and_match_plain_ssa_bit_for_bit() {
        // With 30 molecules the CGP bound never reaches the switch
        // threshold, so the leaping engine *is* the direct method on the
        // same stream: identical samples, state and step count.
        let model = decay_model(30, 1.0);
        let mut hybrid = hybrid(Arc::clone(&model), 9, 4);
        let mut plain = SsaEngine::new(model, 9, 4);
        let mut hc = SampleClock::new(0.0, 0.25);
        let mut pc = SampleClock::new(0.0, 0.25);
        let mut hs = Vec::new();
        let mut ps = Vec::new();
        // Several quanta, to cross exact-segment boundaries mid-run.
        for t in [0.7, 1.5, 3.0, 6.0] {
            hybrid.run_sampled(t, &mut hc, |t, v| hs.push((t, v.to_vec())));
            plain.run_sampled(t, &mut pc, |t, v| ps.push((t, v.to_vec())));
        }
        assert_eq!(hs, ps);
        assert_eq!(hybrid.observe(), plain.observe());
        assert_eq!(hybrid.steps(), plain.steps());
        assert_eq!(hybrid.time(), plain.time());
        assert_eq!(hybrid.leaps(), 0);
        assert_eq!(hybrid.switches(), 0);
    }

    #[test]
    fn large_populations_engage_the_leap_phase() {
        let model = birth_death_model(5000.0, 1.0, 5000);
        let mut e = hybrid(model, 42, 0);
        e.run_until(4.0);
        assert!(e.leaps() > 0, "no leap on a 5000-molecule population");
        assert!(e.switches() > 0);
        assert!(
            leap_firings(&e) > e.steps(),
            "{} leap firings vs {} exact steps",
            leap_firings(&e),
            e.steps()
        );
        // Stationary mean is 5000; sd ≈ 71.
        let n = e.observe()[0] as f64;
        assert!((n - 5000.0).abs() < 8.0 * 71.0, "A = {n}");
    }

    #[test]
    fn decaying_population_switches_back_to_exact() {
        // Start huge (leap phase), decay to nothing: the engine must hand
        // the state back to the exact phase and finish the tail exactly.
        let model = decay_model(50_000, 1.0);
        let mut e = hybrid(model, 3, 0);
        e.run_until(40.0);
        assert_eq!(e.observe(), vec![0], "population must fully decay");
        assert_eq!(e.firings(), 50_000);
        assert!(e.leaps() > 0);
        assert!(e.steps() > 0, "the tail must run exactly");
        assert!(e.switches() >= 2);
        // A leap that escaped the negativity check would wrap around.
        assert!(counts(&e).iter().all(|&c| c < u64::MAX / 2));
    }

    #[test]
    fn quantum_slicing_is_bit_identical_across_phases() {
        // The horizon slices must not move the switch points, the leap
        // draws or the exact stream.
        let model = birth_death_model(3000.0, 2.0, 50);
        let mk = || leaping(Arc::clone(&model), 17, 2, 0.05, 8.0).unwrap();
        let mut whole = mk();
        let mut wc = SampleClock::new(0.0, 0.25);
        let mut ws = Vec::new();
        whole.run_sampled(5.0, &mut wc, |t, v| ws.push((t, v.to_vec())));
        assert!(whole.leaps() > 0, "test must cross into the leap phase");
        assert!(whole.steps() > 0, "test must include exact segments");

        let mut sliced = mk();
        let mut sc = SampleClock::new(0.0, 0.25);
        let mut ss = Vec::new();
        for t in [0.05, 0.21, 0.6, 1.0, 1.31, 2.5, 3.99, 5.0] {
            sliced.run_sampled(t, &mut sc, |t, v| ss.push((t, v.to_vec())));
        }
        assert_eq!(ws, ss);
        assert_eq!(counts(&whole), counts(&sliced));
        assert_eq!(whole.firings(), sliced.firings());
        assert_eq!(whole.leaps(), sliced.leaps());
        assert_eq!(whole.switches(), sliced.switches());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn phase_hand_offs_keep_counts_and_observables_of_a_fresh_engine() {
        // leap → exact → leap: whatever phase the engine is in, its
        // counts and observables are those of a from-scratch exact engine
        // reset to the same counts — inert compartment included, so a
        // phase switch cannot move an observable — and the row,
        // incrementally maintained or rewritten by a leap, is the
        // recomputed one, bit for bit.
        use cwc::model::ObservableSite;
        // A large `A` population decays fast (leap phase, then the exact
        // tail); each of three `P` molecules later bursts into 20 000
        // fresh `A`, sending the engine back into the leap phase.
        let mut m = Model::new("bursts");
        let a = m.species("A");
        let p = m.species("P");
        m.rule("decay").consumes("A", 1).rate(5.0).build().unwrap();
        m.rule("burst")
            .consumes("P", 1)
            .produces("A", 20_000)
            .rate(0.2)
            .build()
            .unwrap();
        m.initial.add_atoms(a, 20_000);
        m.initial.add_atoms(p, 3);
        let cell = m.label("cell");
        m.initial.add_compartment(cwc::term::Compartment::new(
            cell,
            cwc::multiset::Multiset::new(),
            cwc::term::Term::from_atoms(cwc::multiset::Multiset::from([(a, 7)])),
        ));
        m.observe("A", a);
        m.observe_at("A_top", a, ObservableSite::TopOnly);
        m.observe_at("A_cell", a, ObservableSite::AtLabel(cell));
        let model = Arc::new(m);
        let mut e = leaping(Arc::clone(&model), 17, 2, 0.05, 8.0).unwrap();
        for k in 1..=300 {
            e.run_until(k as f64 * 0.1);
            let mut fresh = SsaEngine::new(Arc::clone(&model), 0, 0);
            fresh.reset_flat_state(counts(&e), e.time());
            let top = counts(&e)[0];
            assert_eq!(e.observe(), fresh.observe(), "k = {k}");
            assert_eq!(e.observe(), [top + 7, top, 7], "k = {k}");
            assert_eq!(
                e.total_propensity().to_bits(),
                fresh.total_propensity().to_bits(),
                "k = {k}"
            );
            assert_eq!(e.cached_reactions(), fresh.cached_reactions());
        }
        assert!(e.leaps() > 0 && e.steps() > 0);
        assert!(e.switches() >= 3, "{} switches", e.switches());
    }

    #[test]
    fn absorbing_state_fast_forwards() {
        let model = decay_model(0, 1.0);
        let mut e = hybrid(model, 7, 0);
        let mut clock = SampleClock::new(0.0, 1.0);
        let mut samples = Vec::new();
        e.run_sampled(3.0, &mut clock, |t, v| samples.push((t, v[0])));
        assert_eq!(e.time(), 3.0);
        assert_eq!(samples, vec![(0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0)]);
        assert_eq!(e.step_transition(), (0.0, 0));
    }

    #[test]
    fn observe_is_fresh_at_exact_segment_boundaries() {
        // Regression: after exactly EXACT_SEGMENT exact firings the engine
        // sits in the decide state; observe()/counts() must read the
        // state the segment left, not a segment-start snapshot.
        let model = decay_model(200, 1.0);
        let mut e = hybrid(Arc::clone(&model), 5, 0);
        let mut reference = SsaEngine::new(model, 5, 0);
        for _ in 0..EXACT_SEGMENT {
            e.step_transition();
            reference.step();
        }
        assert_eq!(e.steps(), EXACT_SEGMENT);
        assert_eq!(e.observe(), reference.observe());
        assert_eq!(e.observe(), vec![200 - EXACT_SEGMENT]);
        assert_eq!(counts(&e), [200 - EXACT_SEGMENT]);
    }

    #[test]
    fn step_transition_advances_through_both_phases() {
        let model = birth_death_model(5000.0, 1.0, 5000);
        let mut e = hybrid(model, 1, 0);
        let mut events = 0;
        for _ in 0..200 {
            let (dt, fired) = e.step_transition();
            assert!(dt > 0.0);
            events += fired;
        }
        assert_eq!(events, e.firings());
        assert!(e.leaps() > 0);
    }
}
