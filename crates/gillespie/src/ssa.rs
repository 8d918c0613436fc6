//! Gillespie's direct method over CWC terms.
//!
//! "The Gillespie algorithm realises a Monte Carlo simulation on repeated
//! random sampling to compute the result. Each individual simulation is
//! called a trajectory." One step is: read every enabled propensity off an
//! incrementally maintained row, draw the exponential waiting time and the
//! reaction, apply it, then recompute only the propensities the firing
//! could have affected (see [`crate::deps`]).
//!
//! ## Two cores, selected by the model
//!
//! The engine keeps its state in one of two cores. Which one is a property
//! of the input the engine observes at construction — never an option:
//!
//! - **Dense core** — when every rule of the model is compartment-free and
//!   top-level (`rule.is_flat() && rule.site == Label::TOP`), the term
//!   collapses to species counts and the engine steps on a count vector
//!   indexed by [`Species::raw`](cwc::species::Species::raw) and one
//!   propensity row over the non-zero-rate rules: a firing adds the rule's
//!   net stoichiometry, recomputes the slots the dependency graph lists
//!   (exact `u64` binomial product × the rule's kinetic law, all four
//!   laws) and refolds the prefix from the lowest changed slot. All tables
//!   come from the flat form compiled once per [`ModelDeps`]. Compartments
//!   of the initial term are inert under such rules; observables add them
//!   back as constants and [`term`](SsaEngine::term) re-attaches them.
//! - **Tree core** — any model with a compartment rule keeps the term, the
//!   tree matcher and the [`ReactionTable`] of `(site, rule)` slots. It is
//!   the only core that serves those models, and it is the reference the
//!   dense core is property-tested against
//!   ([`SsaEngine::with_tree_core`] runs it on a flat model).
//!
//! Both step on the same `PropensityRow` (see [`crate::table`]), so `a0`,
//! the selection and the RNG draw discipline of [`crate::rng`] — waiting
//! time, selection iff more than one reaction is enabled, one assignment
//! uniform per firing (the dense core draws and discards it) — are
//! bit-identical between them. The steady-state step loop allocates
//! nothing, and a sampled quantum writes its observables into one reused
//! buffer.
//!
//! ## Quantum-exact execution
//!
//! The simulator advances engines in *quanta* (the paper's simulation
//! quantum): a worker runs an instance up to a time horizon, then the task
//! is rescheduled. This engine keeps the drawn-but-not-yet-fired event
//! across quantum boundaries, so a trajectory is **bit-for-bit identical**
//! no matter how the run is sliced into quanta — the property the
//! integration tests use to check that multicore, distributed and GPU
//! execution paths agree exactly.

use std::sync::Arc;

use cwc::matching::{apply_at, choose_assignment_with, match_count, MatchScratch};
use cwc::model::Model;
use cwc::species::Species;
use cwc::term::{Path, SiteId, Term};
use rand::Rng;

use crate::deps::ModelDeps;
use crate::flat::FlatModel;
use crate::rng::{sim_rng, SimRng};
use crate::table::{PropensityRow, ReactionTable};

/// One enabled (rule, site) pair with its propensity.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Index into the model's rule list.
    pub rule: usize,
    /// Site where the rule is enabled.
    pub site: Path,
    /// Propensity `rate * h` at this site.
    pub propensity: f64,
}

/// Outcome of one SSA step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// A reaction fired after waiting `dt`.
    Fired {
        /// Index of the rule that fired.
        rule: usize,
        /// Site where it fired — a dense id into the engine's site
        /// registry, valid until the next structural rewrite (resolve with
        /// `engine.site_path(site)` if needed); always [`SiteId::ROOT`] on
        /// a flat model. Returned instead of a cloned `Path` so the hot
        /// step loop stays allocation-free.
        site: SiteId,
        /// Exponential waiting time that elapsed.
        dt: f64,
    },
    /// No reaction is enabled; the state is absorbing.
    Exhausted,
}

/// The root path, for resolving [`SiteId::ROOT`] without a registry.
static ROOT_PATH: Path = Path(Vec::new());

/// State of the tree core: the term and everything tree matching needs.
#[derive(Debug, Clone)]
struct TreeCore {
    term: Term,
    /// Incrementally maintained propensities of every (site, rule) pair.
    /// Built at construction and kept current by every firing — the term
    /// is only ever mutated through [`SsaEngine::apply_fire`].
    table: ReactionTable,
    scratch: MatchScratch,
    /// Chosen-assignment buffer, reused across firings.
    assignment_buf: Vec<usize>,
}

/// State of the dense core: root counts and one propensity row over the
/// flat form's slots.
#[derive(Debug, Clone)]
struct DenseCore {
    flat: Arc<FlatModel>,
    /// `counts[s.raw()]` = copies of species `s` at the root.
    counts: Vec<u64>,
    row: PropensityRow,
}

impl DenseCore {
    /// Recomputes every slot from the counts and refolds the whole row —
    /// the same pure function of the counts the incremental path applies
    /// slot by slot, so the two are bit-identical.
    fn recompute_row(&mut self) {
        let DenseCore { flat, counts, row } = self;
        row.clear();
        for slot in 0..flat.slots.rule.len() {
            row.push(flat.slot_propensity(slot, |sp| counts[sp]));
        }
        row.refold_from(0);
    }

    /// Applies one firing of `slot`: the net stoichiometry, then the
    /// affected slots and the prefix from the lowest of them.
    #[inline]
    fn fire(&mut self, slot: usize) {
        let DenseCore { flat, counts, row } = self;
        for &(sp, d) in &flat.slots.delta[slot] {
            debug_assert!(d >= 0 || counts[sp] >= d.unsigned_abs(), "count underflow");
            counts[sp] = counts[sp].wrapping_add_signed(d);
        }
        let affected = &flat.slots.affects[slot];
        for &j in affected {
            row.set(
                j as usize,
                flat.slot_propensity(j as usize, |sp| counts[sp]),
            );
        }
        // The list is ascending: its head is the lowest stale slot.
        if let Some(&from) = affected.first() {
            row.refold_from(from as usize);
        }
    }
}

/// Where the engine keeps its state (see the module docs).
#[derive(Debug, Clone)]
enum Core {
    Tree(Box<TreeCore>),
    Dense(DenseCore),
}

/// A single stochastic simulation instance over a CWC term.
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
/// use gillespie::ssa::SsaEngine;
/// use std::sync::Arc;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
/// m.initial.add_atoms(a, 10);
///
/// let mut engine = SsaEngine::new(Arc::new(m), 42, 0);
/// let steps = engine.run_until(1_000.0);
/// assert_eq!(steps, 10); // all 10 molecules eventually decay
/// assert_eq!(engine.term().atoms.count(a), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SsaEngine {
    model: Arc<Model>,
    /// Compiled read/write sets + dependency graph, shared across
    /// instances of the same model.
    deps: Arc<ModelDeps>,
    core: Core,
    time: f64,
    /// Absolute time of the next event, already drawn but not yet fired.
    /// Preserved across quantum boundaries (see module docs).
    pending: Option<f64>,
    rng: SimRng,
    instance: u64,
    steps: u64,
    /// Observable values of the sample being emitted, reused across
    /// samples.
    sample_buf: Vec<u64>,
    /// Diagnostic: number of `a0` reads performed (exactly one per
    /// step-loop iteration — the redundant per-phase re-summations of the
    /// naive implementation are gone; a unit test pins this).
    a0_sums: u64,
}

impl SsaEngine {
    /// Creates an engine for `instance`, seeded from `base_seed`,
    /// compiling the model's dependency graph locally.
    ///
    /// The initial state is taken from the model. When constructing many
    /// instances of one model, compile once and share via
    /// [`SsaEngine::with_deps`].
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Self {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, instance)
    }

    /// Creates an engine reusing an already-compiled dependency graph
    /// (see [`ModelDeps::compile`]). A model whose rules are all
    /// compartment-free and top-level gets the dense core, any other the
    /// tree core (see the module docs).
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Self {
        let core = match deps.flat(&model) {
            Some(flat) => {
                let mut dense = DenseCore {
                    counts: flat.initial_counts().to_vec(),
                    flat,
                    row: PropensityRow::default(),
                };
                dense.recompute_row();
                Core::Dense(dense)
            }
            None => tree_core(&model),
        };
        Self::from_core(model, deps, core, base_seed, instance)
    }

    /// Diagnostic replica: the **tree core** whatever the model — term,
    /// tree matcher and [`ReactionTable`] even when every rule is flat.
    /// Trajectories are bit-identical to the dense core's (the
    /// `dense_core` property tests compare the two on random flat models);
    /// this side is the reference of that comparison and nothing else:
    /// no [`EngineKind`](crate::engine::EngineKind) or configuration
    /// reaches it.
    pub fn with_tree_core(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Self {
        let core = tree_core(&model);
        Self::from_core(model, deps, core, base_seed, instance)
    }

    fn from_core(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        core: Core,
        base_seed: u64,
        instance: u64,
    ) -> Self {
        SsaEngine {
            model,
            deps,
            core,
            time: 0.0,
            pending: None,
            rng: sim_rng(base_seed, instance),
            instance,
            steps: 0,
            sample_buf: Vec::new(),
            a0_sums: 0,
        }
    }

    /// The current term, materialised on demand: the tree core's term, or
    /// — on the dense core — the initial term with its root atoms replaced
    /// by the current counts. Not for step paths.
    pub fn term(&self) -> Term {
        match &self.core {
            Core::Tree(tree) => tree.term.clone(),
            Core::Dense(dense) => {
                let mut term = self.model.initial.clone();
                term.atoms = (0u32..)
                    .zip(&dense.counts)
                    .map(|(raw, &n)| (Species::from_raw(raw), n))
                    .collect();
                term
            }
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Total reactions fired so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// The compiled dependency graph driving incremental updates.
    pub fn deps(&self) -> &Arc<ModelDeps> {
        &self.deps
    }

    /// Evaluates the model's observables on the current state.
    pub fn observe(&self) -> Vec<u64> {
        let mut values = Vec::new();
        self.observe_into(&mut values);
        values
    }

    /// [`observe`](SsaEngine::observe) into a reusable buffer (cleared
    /// first).
    pub(crate) fn observe_into(&self, out: &mut Vec<u64>) {
        match &self.core {
            Core::Tree(tree) => {
                out.clear();
                out.extend(self.model.observables.iter().map(|o| o.eval(&tree.term)));
            }
            Core::Dense(dense) => dense.flat.observe_into(|sp| dense.counts[sp], out),
        }
    }

    /// Enumerates every enabled reaction with its propensity, from
    /// scratch.
    ///
    /// This is the naive full walk the incremental row replaced in the
    /// step loop; it is kept as the reference oracle (tests assert the
    /// row equals it after arbitrary firing sequences) and for one-off
    /// inspection. Prefer [`cached_reactions`](SsaEngine::cached_reactions)
    /// when the engine is hot.
    pub fn reactions(&self) -> Vec<Reaction> {
        let mut out = Vec::new();
        // The tree core's term as it stands; the dense core has none and
        // materialises one.
        let dense_term;
        let term = match &self.core {
            Core::Tree(tree) => &tree.term,
            Core::Dense(_) => {
                dense_term = self.term();
                &dense_term
            }
        };
        // Walk sites once; check every rule whose label matches the site.
        term.walk_sites(&mut |path, label, site_term| {
            for (ri, rule) in self.model.rules.iter().enumerate() {
                if rule.site != label || rule.rate == 0.0 {
                    continue;
                }
                let h = match_count(site_term, &rule.lhs);
                if h > 0 {
                    let propensity = rule.law.propensity(rule.rate, h, &site_term.atoms);
                    if propensity > 0.0 {
                        out.push(Reaction {
                            rule: ri,
                            site: path.clone(),
                            propensity,
                        });
                    }
                }
            }
        });
        out
    }

    /// The enabled reactions as maintained by the incremental row.
    /// Same set, order and propensities as
    /// [`reactions`](SsaEngine::reactions) — that equality is the row's
    /// correctness contract.
    pub fn cached_reactions(&self) -> Vec<Reaction> {
        self.active_entries()
            .map(|(entry, propensity)| {
                let (site, rule) = self.site_rule(entry);
                Reaction {
                    rule,
                    site: self.site_path(site).clone(),
                    propensity,
                }
            })
            .collect()
    }

    /// Total propensity `a0` of the current state.
    pub fn total_propensity(&self) -> f64 {
        self.row().total()
    }

    /// Resolves a dense site id (as reported by
    /// [`StepOutcome::Fired`]) to its path, while the id is current.
    pub fn site_path(&self, site: SiteId) -> &Path {
        match &self.core {
            Core::Tree(tree) => tree.table.registry().path(site),
            Core::Dense(_) => &ROOT_PATH,
        }
    }

    /// Diagnostic: total `a0` reads performed so far. The step loop
    /// performs exactly one per iteration (see the satellite regression
    /// test `one_a0_sum_per_step`).
    pub fn a0_sums(&self) -> u64 {
        self.a0_sums
    }

    /// The always-current propensity row of whichever core is active.
    #[inline]
    fn row(&self) -> &PropensityRow {
        match &self.core {
            Core::Tree(tree) => tree.table.row(),
            Core::Dense(dense) => &dense.row,
        }
    }

    /// `(entry, propensity)` of every enabled reaction in row order — the
    /// first-reaction method's draw order.
    pub(crate) fn active_entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row().active_entries()
    }

    /// The `(site, rule)` key of row entry `entry`.
    #[inline]
    fn site_rule(&self, entry: usize) -> (SiteId, usize) {
        match &self.core {
            Core::Tree(tree) => tree.table.site_rule(entry),
            Core::Dense(dense) => (SiteId::ROOT, dense.flat.slots.rule[entry] as usize),
        }
    }

    /// The root counts per species index, on the dense core.
    pub(crate) fn dense_counts(&self) -> Option<&[u64]> {
        match &self.core {
            Core::Tree(_) => None,
            Core::Dense(dense) => Some(&dense.counts),
        }
    }

    /// `a0` for this step-loop iteration: one O(1) read of the row's
    /// ordered fold — shared by the waiting-time draw and the selection,
    /// replacing the naive implementation's two re-summations plus full
    /// re-enumeration.
    #[inline]
    fn current_a0(&mut self) -> f64 {
        self.a0_sums += 1;
        self.row().total()
    }

    /// Absolute time of the next event, drawing it if necessary.
    ///
    /// Returns `None` when the state is absorbing (`a0 = 0`).
    #[inline]
    fn next_event_time(&mut self, a0: f64) -> Option<f64> {
        if let Some(t) = self.pending {
            return Some(t);
        }
        if a0 <= 0.0 {
            return None;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let t = self.time + (-u1.ln() / a0);
        self.pending = Some(t);
        Some(t)
    }

    /// Fires row entry `entry` and brings the row up to date; returns the
    /// `(rule, site)` that fired. On the tree core `u_assign` picks the
    /// compartment assignment before the term is rewritten; the dense core
    /// has none to pick (the caller has still drawn the uniform — the
    /// stream positions of the two cores must agree). Shared with the
    /// first-reaction engine, which supplies its own selection and draws.
    #[inline]
    pub(crate) fn apply_fire(&mut self, entry: usize, u_assign: f64) -> (usize, SiteId) {
        match &mut self.core {
            Core::Dense(dense) => {
                dense.fire(entry);
                (dense.flat.slots.rule[entry] as usize, SiteId::ROOT)
            }
            Core::Tree(tree) => {
                let TreeCore {
                    term,
                    table,
                    scratch,
                    assignment_buf,
                } = &mut **tree;
                let (site, rule_idx) = table.site_rule(entry);
                let rule = &self.model.rules[rule_idx];
                let path = table.registry().path(site);
                let ok = {
                    let site_term = term.site(path).expect("fired site exists");
                    choose_assignment_with(site_term, &rule.lhs, u_assign, scratch, assignment_buf)
                };
                debug_assert!(ok, "reaction was enabled");
                apply_at(term, rule, path, assignment_buf).expect("chosen assignment applies");
                table.post_fire(
                    &self.model,
                    &self.deps,
                    term,
                    rule_idx,
                    site,
                    assignment_buf,
                    scratch,
                );
                (rule_idx, site)
            }
        }
    }

    /// Fires the pending event: selects a reaction proportionally to
    /// propensity and applies it.
    ///
    /// With a single enabled reaction the selection is deterministic and
    /// no variate is consumed — part of the draw discipline documented in
    /// [`crate::rng`] that lets the coupled first-reaction engine
    /// reproduce single-channel trajectories bit-for-bit.
    #[inline]
    fn fire(&mut self, a0: f64, event_time: f64) -> (usize, SiteId) {
        let entry = if self.row().active_count() == 1 {
            self.row().first_active().expect("one enabled reaction")
        } else {
            let target = self.rng.gen_range(0.0..a0);
            self.row().select(target)
        };
        let u3: f64 = self.rng.gen_range(0.0..1.0);
        let fired = self.apply_fire(entry, u3);
        self.time = event_time;
        self.pending = None;
        self.steps += 1;
        fired
    }

    /// Executes one SSA step (direct method).
    pub fn step(&mut self) -> StepOutcome {
        let a0 = self.current_a0();
        match self.next_event_time(a0) {
            None => StepOutcome::Exhausted,
            Some(t) => {
                let dt = t - self.time;
                let (rule, site) = self.fire(a0, t);
                StepOutcome::Fired { rule, site, dt }
            }
        }
    }

    /// Runs until simulation time reaches `t_end` (or the state absorbs);
    /// returns the number of reactions fired.
    ///
    /// An event drawn beyond `t_end` is kept pending and fires in a later
    /// quantum, so slicing a run into quanta leaves the trajectory
    /// unchanged.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        let mut fired = 0;
        while self.time < t_end {
            let a0 = self.current_a0();
            match self.next_event_time(a0) {
                None => {
                    self.time = t_end;
                    break;
                }
                Some(t) if t > t_end => {
                    self.time = t_end;
                    break;
                }
                Some(t) => {
                    self.fire(a0, t);
                    fired += 1;
                }
            }
        }
        fired
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval. Returns reactions
    /// fired. The slice handed to `on_sample` is a buffer the engine
    /// reuses: copy what must outlive the call.
    ///
    /// Samples report the state *in force* at the sample time (the state
    /// before the event that crosses it), which is the standard alignment
    /// convention for piecewise-constant SSA trajectories — and exactly the
    /// "alignment of trajectories" contract of the simulation pipeline.
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        self.run_sampled_bounded(t_end, clock, u64::MAX, on_sample)
    }

    /// Like [`run_sampled`](SsaEngine::run_sampled), but stops after at
    /// most `max_steps` firings, leaving the clock mid-quantum. The hybrid
    /// engine drives its exact segments through this: stopping on a step
    /// count (a pure function of committed state) rather than a time keeps
    /// the phase-switch schedule independent of quantum slicing. With
    /// `max_steps = u64::MAX` this *is* `run_sampled`.
    pub(crate) fn run_sampled_bounded<F>(
        &mut self,
        t_end: f64,
        clock: &mut SampleClock,
        max_steps: u64,
        mut on_sample: F,
    ) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut values = std::mem::take(&mut self.sample_buf);
        let mut fired = 0;
        while fired < max_steps {
            let a0 = self.current_a0();
            let t_next = self.next_event_time(a0).unwrap_or(f64::INFINITY);
            // Emit all samples that fall before the next event and within
            // the quantum.
            let horizon = t_next.min(t_end);
            while let Some(ts) = clock.peek() {
                if ts > horizon {
                    break;
                }
                self.observe_into(&mut values);
                on_sample(ts, &values);
                clock.advance();
            }
            if t_next > t_end {
                self.time = t_end;
                break;
            }
            self.fire(a0, t_next);
            fired += 1;
        }
        self.sample_buf = values;
        fired
    }

    /// Replaces the dense core's counts with `state` at simulation time
    /// `time`, dropping any pending event and recomputing the row from
    /// them. The hybrid engine uses this to hand a leap-phase state back
    /// to its exact phase; a recomputed row is bit-identical to an
    /// incrementally maintained one (each slot is a pure function of the
    /// counts, and the fold is the same ordered fold).
    ///
    /// # Panics
    ///
    /// Panics on the tree core: the one caller, the hybrid engine, is
    /// flat by construction.
    pub(crate) fn reset_flat_state(&mut self, state: &[i64], time: f64) {
        let Core::Dense(dense) = &mut self.core else {
            unreachable!("only flat models hand a count vector back");
        };
        debug_assert!(state.iter().all(|&c| c >= 0), "negative leap state");
        dense.counts.clear();
        dense.counts.extend(state.iter().map(|&c| c as u64));
        dense.recompute_row();
        self.time = time;
        self.pending = None;
    }
}

/// The tree core over `model`'s initial term, table built.
fn tree_core(model: &Model) -> Core {
    let mut tree = Box::new(TreeCore {
        term: model.initial.clone(),
        table: ReactionTable::default(),
        scratch: MatchScratch::default(),
        assignment_buf: Vec::new(),
    });
    let TreeCore {
        term,
        table,
        scratch,
        ..
    } = &mut *tree;
    table.build(model, term, scratch);
    Core::Tree(tree)
}

/// Fixed-step sampling clock (the τ grid of the paper's Q/τ ratio).
///
/// Persistent across quanta: the simulator keeps one clock per instance so
/// samples align on a global grid regardless of quantum boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleClock {
    next: f64,
    period: f64,
    emitted: u64,
    limit: Option<u64>,
}

impl SampleClock {
    /// Creates a clock emitting at `start`, `start+period`, ...
    ///
    /// # Panics
    ///
    /// Panics if `period` is not finite and positive.
    pub fn new(start: f64, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "sample period must be positive"
        );
        SampleClock {
            next: start,
            period,
            emitted: 0,
            limit: None,
        }
    }

    /// Caps the total number of samples emitted.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Next sample time, if any.
    pub fn peek(&self) -> Option<f64> {
        match self.limit {
            Some(l) if self.emitted >= l => None,
            _ => Some(self.next),
        }
    }

    /// Moves to the following grid point.
    pub fn advance(&mut self) {
        self.emitted += 1;
        self.next += self.period;
    }

    /// Number of samples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The sampling period τ.
    pub fn period(&self) -> f64 {
        self.period
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

    #[test]
    fn decay_fires_exactly_n_times() {
        let mut e = SsaEngine::new(decay_model(25, 2.0), 1, 0);
        let fired = e.run_until(1e6);
        assert_eq!(fired, 25);
        assert_eq!(e.steps(), 25);
        assert_eq!(e.observe(), vec![0]);
        assert_eq!(e.step(), StepOutcome::Exhausted);
    }

    #[test]
    fn exhausted_state_fast_forwards_time() {
        let mut e = SsaEngine::new(decay_model(0, 1.0), 1, 0);
        assert_eq!(e.run_until(5.0), 0);
        assert_eq!(e.time(), 5.0);
    }

    #[test]
    fn identical_seeds_reproduce_trajectories() {
        let model = decay_model(50, 0.3);
        let mut a = SsaEngine::new(Arc::clone(&model), 9, 4);
        let mut b = SsaEngine::new(model, 9, 4);
        a.run_until(3.0);
        b.run_until(3.0);
        assert_eq!(a.term(), b.term());
        assert_eq!(a.time(), b.time());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn quantum_slicing_is_bit_identical() {
        // The same trajectory, whether run in one go or in 100 quanta.
        let model = decay_model(40, 1.0);
        let mut whole = SsaEngine::new(Arc::clone(&model), 3, 7);
        whole.run_until(100.0);
        let mut sliced = SsaEngine::new(model, 3, 7);
        for k in 1..=100 {
            sliced.run_until(k as f64);
        }
        assert_eq!(whole.term(), sliced.term());
        assert_eq!(whole.steps(), sliced.steps());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn mean_decay_time_is_statistically_plausible() {
        // For A -> ∅ at rate k with n0 molecules, E[N(t)] = n0 e^{-kt}.
        let model = decay_model(1000, 1.0);
        let mut e = SsaEngine::new(model, 123, 0);
        e.run_until(1.0);
        let remaining = e.observe()[0] as f64;
        let expected = 1000.0 * (-1.0f64).exp(); // ≈ 367.9
        let sd = (1000.0 * (-1.0f64).exp() * (1.0 - (-1.0f64).exp())).sqrt(); // ≈ 15.2
        assert!(
            (remaining - expected).abs() < 5.0 * sd,
            "remaining {remaining} too far from {expected}"
        );
    }

    #[test]
    fn reactions_report_propensities() {
        let model = decay_model(10, 0.5);
        let e = SsaEngine::new(model, 1, 0);
        let rs = e.reactions();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].rule, 0);
        assert!((rs[0].propensity - 5.0).abs() < 1e-12); // 0.5 * 10
        assert!((e.total_propensity() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sample_clock_emits_grid() {
        let mut c = SampleClock::new(0.0, 0.5).with_limit(3);
        assert_eq!(c.peek(), Some(0.0));
        c.advance();
        assert_eq!(c.peek(), Some(0.5));
        c.advance();
        c.advance();
        assert_eq!(c.peek(), None);
        assert_eq!(c.emitted(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_clock_panics() {
        let _ = SampleClock::new(0.0, 0.0);
    }

    #[test]
    fn run_sampled_emits_aligned_samples() {
        let model = decay_model(10, 1.0);
        let mut e = SsaEngine::new(model, 5, 0);
        let mut clock = SampleClock::new(0.0, 1.0);
        let mut samples = Vec::new();
        e.run_sampled(5.0, &mut clock, |t, v| samples.push((t, v[0])));
        // Grid points 0,1,2,3,4,5 -> 6 samples, monotone times, counts
        // non-increasing for a pure-death process.
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[0], (0.0, 10));
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(samples.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn run_sampled_across_quanta_equals_single_run() {
        let model = decay_model(30, 0.7);
        // Single run to t=6.
        let mut whole = SsaEngine::new(Arc::clone(&model), 11, 2);
        let mut wc = SampleClock::new(0.0, 0.5);
        let mut ws = Vec::new();
        whole.run_sampled(6.0, &mut wc, |t, v| ws.push((t, v.to_vec())));
        // Same run split into 12 quanta of 0.5.
        let mut parts = SsaEngine::new(model, 11, 2);
        let mut pc = SampleClock::new(0.0, 0.5);
        let mut ps = Vec::new();
        for k in 1..=12 {
            parts.run_sampled(k as f64 * 0.5, &mut pc, |t, v| ps.push((t, v.to_vec())));
        }
        assert_eq!(ws, ps);
        assert_eq!(whole.term(), parts.term());
    }

    #[test]
    fn mixed_quantum_sizes_still_bit_identical() {
        let model = decay_model(20, 0.9);
        let mut a = SsaEngine::new(Arc::clone(&model), 21, 0);
        a.run_until(10.0);
        let mut b = SsaEngine::new(model, 21, 0);
        // Irregular quanta covering the same horizon.
        for t in [0.3, 1.7, 1.9, 4.0, 9.99, 10.0] {
            b.run_until(t);
        }
        assert_eq!(a.term(), b.term());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn birth_death_reaches_equilibrium_band() {
        // ∅ -> A at rate kb (constant), A -> ∅ at rate kd per molecule:
        // stationary mean kb/kd.
        let mut m = Model::new("bd");
        let a = m.species("A");
        let g = m.species("G"); // constant source species
        m.rule("birth")
            .consumes("G", 1)
            .produces("G", 1)
            .produces("A", 1)
            .rate(50.0)
            .build()
            .unwrap();
        m.rule("death").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(g, 1);
        m.observe("A", a);
        let mut e = SsaEngine::new(Arc::new(m), 77, 0);
        e.run_until(30.0); // burn in ≫ 1/kd
                           // Stationary distribution is Poisson(50): mean 50, sd ≈ 7.1.
        let n = e.observe()[0] as f64;
        assert!((n - 50.0).abs() < 5.0 * 7.1, "A = {n}, expected ≈ 50");
    }
}
