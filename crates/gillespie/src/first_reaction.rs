//! The first-reaction method: an alternative exact SSA sampler.
//!
//! **Extension beyond the paper** (the CWC simulator uses the direct
//! method only; StochKit, its related work, "remain\[s\] open to extension
//! via new stochastic [...] algorithms"). Gillespie's first-reaction
//! method draws one exponential waiting time *per enabled reaction* and
//! fires the earliest. It samples exactly the same process law as the
//! direct method — the cross-method statistical test in this module checks
//! that — while consuming randomness differently, which makes it a useful
//! oracle against subtle propensity bugs: both methods must agree on every
//! distributional property even though their trajectories differ
//! draw-by-draw.
//!
//! ## Quantum-exact execution
//!
//! Like [`SsaEngine`], this engine keeps the drawn-but-not-yet-fired
//! winning event across quantum boundaries: when a quantum ends before the
//! event, the (reaction, absolute time) pair is preserved and fired in a
//! later quantum instead of being re-drawn, so rescheduling cannot change
//! a trajectory. The term is unchanged while an event is pending, so the
//! deterministically re-enumerated reaction list is identical when the
//! pending winner finally fires.
//!
//! ## Coupling to the direct method
//!
//! For single-channel states both methods consume randomness identically
//! (see the draw discipline in [`crate::rng`]): one uniform for the
//! waiting time, none for the selection, one for the assignment. An engine
//! built with [`FirstReactionEngine::coupled`] shares the direct method's
//! instance stream and therefore reproduces `SsaEngine` trajectories
//! **bit-for-bit** on single-channel models — the common-random-numbers
//! property test that pins down waiting-time and propensity formulas.

use std::sync::Arc;

use cwc::model::Model;
use cwc::term::{SiteId, Term};
use rand::Rng;

use crate::deps::ModelDeps;
use crate::rng::{sim_rng, SimRng};
use crate::ssa::{SampleClock, SsaEngine, StepOutcome};

/// Exact SSA engine using the first-reaction method. It steps on whichever
/// core [`SsaEngine`] selected for the model (dense on flat models, tree
/// otherwise) and only replaces the sampling loop.
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
/// use gillespie::first_reaction::FirstReactionEngine;
/// use std::sync::Arc;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
/// m.initial.add_atoms(a, 5);
/// let mut engine = FirstReactionEngine::new(Arc::new(m), 7, 0);
/// let fired = engine.run_until(1e9);
/// assert_eq!(fired, 5);
/// ```
#[derive(Debug, Clone)]
pub struct FirstReactionEngine {
    /// Reuses the direct engine's state and incremental propensity row;
    /// only the sampling loop differs.
    inner: SsaEngine,
    rng: SimRng,
    time: f64,
    /// The winning `(row entry index, absolute firing time)` already
    /// drawn but not yet fired. Preserved across quantum boundaries (see
    /// module docs); the state — and therefore the row — is unchanged
    /// while an event is pending, so the entry index stays valid.
    pending: Option<(usize, f64)>,
    steps: u64,
    /// Observable values of the sample being emitted, reused across
    /// samples.
    sample_buf: Vec<u64>,
}

impl FirstReactionEngine {
    /// Creates an engine for `instance`, seeded from `base_seed`.
    ///
    /// The RNG stream is independent from the direct method's (offset
    /// instance space), so the two engines cannot accidentally share
    /// draws.
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Self {
        Self::over(
            SsaEngine::new(model, base_seed, instance),
            sim_rng(base_seed ^ 0xF1E5_7EAC, instance),
        )
    }

    /// Like [`FirstReactionEngine::new`], reusing an already-compiled
    /// dependency graph (see [`ModelDeps::compile`]).
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Self {
        Self::over(
            SsaEngine::with_deps(model, deps, base_seed, instance),
            sim_rng(base_seed ^ 0xF1E5_7EAC, instance),
        )
    }

    /// Creates an engine sharing the direct method's instance stream
    /// (common random numbers): on single-channel models its trajectory is
    /// bit-for-bit identical to [`SsaEngine`]'s with the same seeds — the
    /// coupling oracle described in the module docs and [`crate::rng`].
    pub fn coupled(model: Arc<Model>, base_seed: u64, instance: u64) -> Self {
        Self::over(
            SsaEngine::new(model, base_seed, instance),
            sim_rng(base_seed, instance),
        )
    }

    /// The first-reaction loop over `inner`'s state, drawing from `rng`.
    fn over(inner: SsaEngine, rng: SimRng) -> Self {
        FirstReactionEngine {
            inner,
            rng,
            time: 0.0,
            pending: None,
            steps: 0,
            sample_buf: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        self.inner.instance()
    }

    /// Reactions fired so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current term, materialised on demand (see
    /// [`SsaEngine::term`]).
    pub fn term(&self) -> Term {
        self.inner.term()
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        self.inner.model()
    }

    /// Evaluates the model's observables.
    pub fn observe(&self) -> Vec<u64> {
        self.inner.observe()
    }

    /// The winning event, drawing candidate times for every enabled
    /// reaction if none is pending. Returns `None` when the state is
    /// absorbing.
    ///
    /// Enabled reactions come straight off the shared incremental row, in
    /// row order — the same enumeration order (and so the same draw order)
    /// as the naive re-enumeration it replaced.
    fn next_event(&mut self) -> Option<(usize, f64)> {
        if let Some(p) = self.pending {
            return Some(p);
        }
        // One exponential candidate per enabled reaction; the minimum wins
        // (provably equivalent to the direct method).
        let mut best: Option<(usize, f64)> = None;
        for (entry, propensity) in self.inner.active_entries() {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let t = self.time + (-u.ln() / propensity);
            if best.map(|(_, b)| t < b).unwrap_or(true) {
                best = Some((entry, t));
            }
        }
        self.pending = best;
        best
    }

    /// Fires the pending event: chooses the assignment, applies the
    /// reaction and updates the shared propensity row (via the direct
    /// engine's firing path, with this engine's RNG supplying the draws).
    fn fire(&mut self, event: (usize, f64)) -> (usize, SiteId) {
        let (winner, event_time) = event;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let fired = self.inner.apply_fire(winner, u);
        self.time = event_time;
        self.pending = None;
        self.steps += 1;
        fired
    }

    /// Executes one first-reaction step (fires the pending event if one
    /// was held over from a previous quantum).
    pub fn step(&mut self) -> StepOutcome {
        match self.next_event() {
            None => StepOutcome::Exhausted,
            Some(event) => {
                let dt = event.1 - self.time;
                let (rule, site) = self.fire(event);
                StepOutcome::Fired { rule, site, dt }
            }
        }
    }

    /// Runs until `t_end` (or exhaustion); returns reactions fired.
    ///
    /// An event drawn beyond `t_end` is kept pending and fires in a later
    /// quantum, so slicing a run into quanta leaves the trajectory
    /// unchanged.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        let mut fired = 0;
        while self.time < t_end {
            match self.next_event() {
                None => {
                    self.time = t_end;
                    break;
                }
                Some((_, t)) if t > t_end => {
                    self.time = t_end;
                    break;
                }
                Some(event) => {
                    self.fire(event);
                    fired += 1;
                }
            }
        }
        fired
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval. Returns reactions
    /// fired. Same alignment contract as [`SsaEngine::run_sampled`]:
    /// samples report the state in force at the sample time.
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, mut on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut fired = 0;
        loop {
            let t_next = self.next_event().map(|(_, t)| t).unwrap_or(f64::INFINITY);
            // Emit all samples that fall before the next event and within
            // the quantum.
            let horizon = t_next.min(t_end);
            while let Some(ts) = clock.peek() {
                if ts > horizon {
                    break;
                }
                self.inner.observe_into(&mut self.sample_buf);
                on_sample(ts, &self.sample_buf);
                clock.advance();
            }
            if t_next > t_end {
                self.time = t_end;
                break;
            }
            let event = self.pending.expect("finite t_next implies pending");
            self.fire(event);
            fired += 1;
        }
        fired
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

    fn two_species_model() -> Arc<Model> {
        let mut m = Model::new("race");
        let a = m.species("A");
        m.rule("to_b")
            .consumes("A", 1)
            .produces("B", 1)
            .rate(2.0)
            .build()
            .unwrap();
        m.rule("to_c")
            .consumes("A", 1)
            .produces("C", 1)
            .rate(1.0)
            .build()
            .unwrap();
        m.initial.add_atoms(a, 1);
        let b = m.species("B");
        let c = m.species("C");
        m.observe("B", b);
        m.observe("C", c);
        Arc::new(m)
    }

    #[test]
    fn fires_exactly_population_times_for_decay() {
        let mut e = FirstReactionEngine::new(decay_model(30, 1.0), 3, 0);
        assert_eq!(e.run_until(1e9), 30);
        assert_eq!(e.observe(), vec![0]);
        assert_eq!(e.step(), StepOutcome::Exhausted);
    }

    #[test]
    fn branch_probabilities_match_rates() {
        // A -> B at rate 2, A -> C at rate 1: P(B) = 2/3. Over 600 runs the
        // binomial sd is ~0.019, so ±5 sd ≈ ±0.10.
        let model = two_species_model();
        let mut b_wins = 0;
        let runs = 600;
        for i in 0..runs {
            let mut e = FirstReactionEngine::new(Arc::clone(&model), 11, i);
            e.run_until(1e9);
            if e.observe()[0] == 1 {
                b_wins += 1;
            }
        }
        let p = b_wins as f64 / runs as f64;
        assert!((p - 2.0 / 3.0).abs() < 0.10, "P(B first) = {p}");
    }

    #[test]
    fn mean_extinction_matches_direct_method() {
        // Both exact methods must agree on E[A(t)] within Monte Carlo error.
        let model = decay_model(100, 1.0);
        let runs = 200u64;
        let t = 1.0;
        let mut direct_sum = 0u64;
        let mut frm_sum = 0u64;
        for i in 0..runs {
            let mut d = crate::ssa::SsaEngine::new(Arc::clone(&model), 5, i);
            d.run_until(t);
            direct_sum += d.observe()[0];
            let mut f = FirstReactionEngine::new(Arc::clone(&model), 5, i + 10_000);
            f.run_until(t);
            frm_sum += f.observe()[0];
        }
        let d_mean = direct_sum as f64 / runs as f64;
        let f_mean = frm_sum as f64 / runs as f64;
        let expected = 100.0 * (-1.0f64).exp();
        assert!((d_mean - expected).abs() < 3.0, "direct {d_mean}");
        assert!((f_mean - expected).abs() < 3.0, "first-reaction {f_mean}");
        assert!(
            (d_mean - f_mean).abs() < 4.0,
            "methods disagree: {d_mean} vs {f_mean}"
        );
    }

    #[test]
    fn time_advances_monotonically() {
        let mut e = FirstReactionEngine::new(decay_model(20, 5.0), 9, 1);
        let mut last = 0.0;
        while let StepOutcome::Fired { .. } = e.step() {
            assert!(e.time() > last);
            last = e.time();
        }
    }

    #[test]
    fn quantum_slicing_is_bit_identical() {
        // The same trajectory, whether run in one go or in many quanta:
        // the pending winner survives rescheduling (two-channel model, so
        // the winner index actually matters).
        let mut m = Model::new("bd");
        let a = m.species("A");
        m.rule("birth").produces("A", 1).rate(3.0).build().unwrap();
        m.rule("death").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 5);
        m.observe("A", a);
        let model = Arc::new(m);

        let mut whole = FirstReactionEngine::new(Arc::clone(&model), 3, 7);
        whole.run_until(10.0);
        let mut sliced = FirstReactionEngine::new(model, 3, 7);
        for k in 1..=100 {
            sliced.run_until(k as f64 * 0.1);
        }
        assert_eq!(whole.term(), sliced.term());
        assert_eq!(whole.steps(), sliced.steps());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn run_sampled_across_quanta_equals_single_run() {
        let model = decay_model(30, 0.7);
        let mut whole = FirstReactionEngine::new(Arc::clone(&model), 11, 2);
        let mut wc = SampleClock::new(0.0, 0.5);
        let mut ws = Vec::new();
        whole.run_sampled(6.0, &mut wc, |t, v| ws.push((t, v.to_vec())));
        let mut parts = FirstReactionEngine::new(model, 11, 2);
        let mut pc = SampleClock::new(0.0, 0.5);
        let mut ps = Vec::new();
        for k in 1..=12 {
            parts.run_sampled(k as f64 * 0.5, &mut pc, |t, v| ps.push((t, v.to_vec())));
        }
        assert_eq!(ws, ps);
        assert_eq!(whole.term(), parts.term());
        assert_eq!(whole.time(), parts.time());
    }

    #[test]
    fn coupled_engine_reproduces_direct_method_on_single_channel_models() {
        // Single-channel model + shared stream ⇒ identical draw discipline
        // ⇒ bit-for-bit identical trajectories (see crate::rng).
        let model = decay_model(40, 0.8);
        let mut direct = crate::ssa::SsaEngine::new(Arc::clone(&model), 21, 4);
        let mut frm = FirstReactionEngine::coupled(model, 21, 4);
        for t in [0.4, 1.3, 2.0, 5.0, 9.7, 20.0] {
            direct.run_until(t);
            frm.run_until(t);
            assert_eq!(direct.term(), frm.term(), "term at t={t}");
            assert_eq!(direct.time(), frm.time(), "time at t={t}");
            assert_eq!(direct.steps(), frm.steps(), "steps at t={t}");
        }
    }
}
