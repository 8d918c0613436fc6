//! The compiled flat form of a model: what every engine that steps on
//! species counts instead of a term reads.
//!
//! A model is *flat* when every rule is compartment-free and applies at
//! the top level — a property of the input (`FlatModel::accepts`). Its
//! term then collapses to a species-count vector indexed by
//! [`Species::raw`], and one compiled `FlatModel` (crate-private, cached
//! in the model's [`ModelDeps`] by `ModelDeps::flat`, shared by `Arc`,
//! never rebuilt per instance) serves both tiers:
//!
//! - the **exact tier** — the dense core of [`crate::ssa::SsaEngine`]
//!   (and through it the first-reaction and hybrid engines) and the
//!   batched engine of [`crate::batch`] — reads the *slot* tables
//!   (`SlotTables`: the rules with a non-zero rate, in rule order, with
//!   their reactants, net stoichiometry, kinetic laws — compiled once
//!   here into [`CompiledLaw`]s, so a refresh never recomputes `kⁿ` and
//!   takes integral Hill powers without libm — and the slot-to-slot
//!   affected lists of the dependency graph), the one propensity formula
//!   `exact_propensity` and the observable plan;
//! - the **leaping tier** — fixed-step tau-leaping ([`crate::tau_leap`]),
//!   adaptive tau-leaping ([`crate::adaptive`]) and the leap phase of the
//!   hybrid engine ([`crate::hybrid`]) — reads the rule-indexed
//!   reactant/stoichiometry/rate rows, the Cao–Gillespie–Petzold
//!   step-size bound (`FlatModel::cgp_tau_with`) with its
//!   highest-order-reaction `g_i` factors, and the same observable plan.
//!   These engines additionally need mass-action laws; they (and the
//!   batched engine) obtain the shared form through `mass_action_flat`,
//!   which names the offending rule and the refusing engine in a
//!   [`FlatModelError`] the config layer surfaces verbatim.
//!
//! The crate-private `poisson` sampler every leap draw consumes lives
//! here too.

use std::sync::Arc;

use cwc::model::{Model, Observable, ObservableSite};
use cwc::multiset::binomial;
use cwc::rule::{CompiledLaw, RateLaw, Rule};
use cwc::species::{Label, Species};
use cwc::term::Term;
use rand::Rng;

use crate::batch::kernels::SlotPlan;
use crate::deps::ModelDeps;

/// Error constructing a flat-model engine (fixed tau-leaping, adaptive
/// tau-leaping, or the hybrid SSA/tau engine).
///
/// Every variant names the offending rule *and* the engine that rejected
/// it, so a config-level failure pinpoints the model line to fix. The
/// exact engines (direct method, first-reaction) accept all of these
/// models; only the leaping state reduction requires flatness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatModelError {
    /// The model has a rule with compartment patterns or productions.
    NotFlat {
        /// Engine that rejected the model.
        engine: &'static str,
        /// Name of the offending rule.
        rule: String,
    },
    /// The model has a rule that does not apply at the top level.
    NotTopLevel {
        /// Engine that rejected the model.
        engine: &'static str,
        /// Name of the offending rule.
        rule: String,
    },
    /// The model has a rule with a non-mass-action kinetic law.
    NotMassAction {
        /// Engine that rejected the model.
        engine: &'static str,
        /// Name of the offending rule.
        rule: String,
    },
}

impl FlatModelError {
    /// Name of the rule the engine refused.
    pub fn rule(&self) -> &str {
        match self {
            FlatModelError::NotFlat { rule, .. }
            | FlatModelError::NotTopLevel { rule, .. }
            | FlatModelError::NotMassAction { rule, .. } => rule,
        }
    }
}

impl std::fmt::Display for FlatModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatModelError::NotFlat { engine, rule } => {
                write!(
                    f,
                    "rule `{rule}` uses compartments; {engine} needs a flat model"
                )
            }
            FlatModelError::NotTopLevel { engine, rule } => {
                write!(
                    f,
                    "rule `{rule}` applies inside a compartment; {engine} needs top-level rules"
                )
            }
            FlatModelError::NotMassAction { engine, rule } => {
                write!(
                    f,
                    "rule `{rule}` has a non-mass-action law; {engine} supports mass action only"
                )
            }
        }
    }
}

impl std::error::Error for FlatModelError {}

/// Compact CSR row storage: one offsets array plus one contiguous entry
/// array instead of a `Vec` per row. Two allocations total (the
/// per-instance engine constructors feel the difference on wide models)
/// and contiguous iteration for the per-draw sweeps. `rows[r]` indexes to
/// the row's slice.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows<T> {
    /// `offsets[r]..offsets[r + 1]` bounds row `r` in `entries`.
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T> Rows<T> {
    fn with_rows(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Rows {
            offsets,
            entries: Vec::new(),
        }
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.entries.extend(row);
        self.offsets.push(self.entries.len() as u32);
    }

    fn from_parts(offsets: Vec<u32>, entries: Vec<T>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap() as usize, entries.len());
        Rows { offsets, entries }
    }

    /// One row per item of `rows`, in order.
    pub(crate) fn from_rows<R: IntoIterator<Item = T>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut out = Rows::with_rows(0);
        for row in rows {
            out.push_row(row);
        }
        out
    }
}

impl<T> std::ops::Index<usize> for Rows<T> {
    type Output = [T];
    fn index(&self, r: usize) -> &[T] {
        &self.entries[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// The exact tier's view of a flat model: one *slot* per rule with a
/// non-zero rate, in rule order — the order of the propensity row, which
/// the golden fingerprints pin. Everything is slot-indexed so the step
/// loop never maps between the two index spaces.
#[derive(Debug, Clone)]
pub(crate) struct SlotTables {
    /// Slot → rule index.
    pub rule: Vec<u32>,
    /// Per-slot reactant multiplicities, `(species index, count)`,
    /// ascending species order (the tree matcher's product order).
    pub reactants: Rows<(usize, u64)>,
    /// Per-slot net stoichiometric change per firing.
    pub delta: Rows<(usize, i64)>,
    /// Per-slot rate constants.
    pub rates: Vec<f64>,
    /// Per-slot kinetic laws, compiled once here ([`RateLaw::compile`]);
    /// their species are dense indices already ([`Species::raw`] *is* the
    /// index space).
    pub laws: Vec<CompiledLaw>,
    /// Per-slot vectorization plans of the batched kernels.
    pub plans: Vec<SlotPlan>,
    /// Slot → slots whose propensity a firing of it can move: the
    /// dependency graph's same-site affected list, mapped to slots
    /// (ascending, so the first entry is the lowest stale slot).
    pub affects: Rows<u32>,
}

/// How one observable reads a flat state: the root count it follows (if
/// its site reads the root at all) plus everything that can never change.
#[derive(Debug, Clone, Copy)]
struct ObsPlan {
    /// Species index whose root count the observable adds, when its site
    /// reads the root: `Everywhere`, `TopOnly` and `AtLabel(TOP)`.
    dynamic: Option<usize>,
    /// The rest of the observable's value on the initial term — the
    /// compartments flat rules can never touch: `eval(initial)` minus the
    /// initial dynamic part.
    offset: u64,
}

/// The parts of a model a [`FlatModel`] folds into its tables (`initial`,
/// the observable offsets) that nothing else in it lets one read back.
#[derive(Debug, Clone)]
struct Source {
    initial: Term,
    observables: Vec<Observable>,
}

/// A flat model compiled to dense index space: the state is a count
/// vector indexed by [`Species::raw`], and every count-stepping engine
/// reads its tables from here (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FlatModel {
    /// What of the model, beyond its rules, the form was compiled from
    /// (see [`FlatModel::compiled_from`]).
    source: Source,
    /// Root counts of the initial term, per species index. Its length is
    /// the index space of every state vector: the alphabet, plus any
    /// handle the rules, the root of the initial term or the observables
    /// mention beyond it.
    initial: Vec<u64>,
    /// Per-rule reactant multiplicities, `(species index, count)`.
    pub reactants: Rows<(usize, u64)>,
    /// Per-rule net stoichiometric change per firing.
    pub delta: Rows<(usize, i64)>,
    /// Per-rule rate constants.
    pub rates: Vec<f64>,
    /// The exact tier's slot-indexed tables.
    pub slots: SlotTables,
    /// One plan per model observable, in registration order.
    observables: Vec<ObsPlan>,
    /// Per-species `(reaction order, copies required)` pairs over the
    /// rules consuming that species — the static inputs of the CGP
    /// `g_i` factor, precomputed so the tau-selection hot path avoids an
    /// O(rules × reactants) rescan per species.
    g_pairs: Rows<(u64, u64)>,
    /// Per-species CGP `g_i` when it does not depend on the copy number
    /// (no order-2/3 pair needing ≥2 copies of the species), `NaN` when
    /// it does. Most mass-action models are first-order in each
    /// reactant, making the per-draw `g_factor` table walk a constant
    /// load on the adaptive hot path.
    g_const: Vec<f64>,
    /// Species → rules whose *propensity depends on* that species (its
    /// reactants). When a transition changes species `i`, exactly the
    /// rules in `incidence[i]` can change propensity — the adaptive
    /// engine's O(affected) per-transition refresh reads this.
    pub incidence: Rows<usize>,
}

#[cfg(test)]
std::thread_local! {
    /// Flat compilations performed by this thread (see
    /// [`FlatModel::thread_compile_count`]).
    static FLAT_COMPILE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Size of the dense index space of `model`: the alphabet, widened to any
/// species handle the rules, the initial root or the observables use
/// beyond it (hand-built models may mint handles with `from_raw`).
fn species_space(model: &Model) -> usize {
    let mut n = model.alphabet.species_count();
    let mut cover = |s: Species| n = n.max(s.raw() as usize + 1);
    for rule in &model.rules {
        rule.lhs.atoms.iter().for_each(|(s, _)| cover(s));
        rule.rhs.atoms.iter().for_each(|(s, _)| cover(s));
        match rule.law {
            RateLaw::MassAction => {}
            RateLaw::HillRepression { inhibitor: s, .. }
            | RateLaw::HillActivation { activator: s, .. }
            | RateLaw::Saturating { substrate: s, .. } => cover(s),
        }
    }
    model.initial.atoms.iter().for_each(|(s, _)| cover(s));
    model.observables.iter().for_each(|o| cover(o.species));
    n
}

/// The exact tier's propensity of one slot — the tree matcher's `h`
/// replayed on dense counts: the exact `u64` product of per-reactant
/// binomial selection counts (saturating, zero as soon as a reactant is
/// short), handed to the rule's compiled kinetic law ([`CompiledLaw`], the
/// reference [`RateLaw::propensity_with`]'s bits) with a single float
/// cast, then the positive clamp. The definition the dense core, the
/// batched scalar kernels and (under their exactness guards) the AVX2
/// kernels all reproduce bit-for-bit; `count` looks a species index up in
/// whatever layout the caller keeps.
#[inline]
pub(crate) fn exact_propensity(
    reactants: &[(usize, u64)],
    rate: f64,
    law: &CompiledLaw,
    count: impl Fn(usize) -> u64,
) -> f64 {
    let mut h: u64 = 1;
    for &(sp, k) in reactants {
        let n = count(sp);
        if n < k {
            return 0.0;
        }
        h = h.saturating_mul(binomial(n, k));
        if h == 0 {
            return 0.0;
        }
    }
    let p = law.propensity_with(rate, h, |s| count(s.raw() as usize));
    if p > 0.0 {
        p
    } else {
        0.0
    }
}

/// The shared flat form of `model` for an engine that additionally needs
/// mass-action laws (the leaping engines and the batched engine; `engine`
/// is the name that appears in the rejection).
///
/// # Errors
///
/// Returns the [`FlatModelError`] of the first rule, in rule order, that
/// uses compartments, applies below the top level or has a
/// non-mass-action law.
pub(crate) fn mass_action_flat(
    model: &Model,
    deps: &ModelDeps,
    engine: &'static str,
) -> Result<Arc<FlatModel>, FlatModelError> {
    for rule in &model.rules {
        let rule_name = || rule.name.clone();
        if !rule.is_flat() {
            return Err(FlatModelError::NotFlat {
                engine,
                rule: rule_name(),
            });
        }
        if rule.site != Label::TOP {
            return Err(FlatModelError::NotTopLevel {
                engine,
                rule: rule_name(),
            });
        }
        if !rule.law.is_mass_action() {
            return Err(FlatModelError::NotMassAction {
                engine,
                rule: rule_name(),
            });
        }
    }
    Ok(deps.flat(model).expect("every rule is flat and top-level"))
}

impl FlatModel {
    /// Whether `model` is flat: every rule compartment-free and applying
    /// at the top level.
    pub fn accepts(model: &Model) -> bool {
        let flat_top = |rule: &Rule| rule.is_flat() && rule.site == Label::TOP;
        model.rules.iter().all(flat_top)
    }

    /// Compiles the flat form of `model` (which [`accepts`](Self::accepts)
    /// must hold for), taking net stoichiometry and the affected lists
    /// from the shared [`ModelDeps`] compilation. Called once per
    /// [`ModelDeps`] and model (by [`ModelDeps::flat`]).
    pub fn compile(model: &Model, deps: &ModelDeps) -> Self {
        debug_assert!(Self::accepts(model));
        #[cfg(test)]
        FLAT_COMPILE_COUNT.with(|c| c.set(c.get() + 1));
        let ns = species_space(model);
        let index_of = |s: Species| s.raw() as usize;
        let nrules = model.rules.len();
        let reactants = Rows::from_rows(
            model
                .rules
                .iter()
                .map(|rule| rule.lhs.atoms.iter().map(|(s, n)| (index_of(s), n))),
        );
        // Net stoichiometry straight from the compiled dependency info
        // (ascending species order, like the indices).
        let delta = Rows::from_rows((0..nrules).map(|ri| {
            deps.rule(ri)
                .site_delta
                .iter()
                .map(|&(s, v)| (index_of(s), v))
        }));
        let rates: Vec<f64> = model.rules.iter().map(|rule| rule.rate).collect();

        // Exact-tier slots: the rules that ever enter a propensity row.
        let slot_rule: Vec<u32> = (0..nrules as u32)
            .filter(|&r| rates[r as usize] != 0.0)
            .collect();
        let mut rule_slot = vec![u32::MAX; nrules];
        for (j, &r) in slot_rule.iter().enumerate() {
            rule_slot[r as usize] = j as u32;
        }
        let slot_rules = || slot_rule.iter().map(|&r| r as usize);
        let slot_reactants = Rows::from_rows(slot_rules().map(|r| reactants[r].iter().copied()));
        let slots = SlotTables {
            delta: Rows::from_rows(slot_rules().map(|r| delta[r].iter().copied())),
            rates: slot_rules().map(|r| rates[r]).collect(),
            laws: slot_rules().map(|r| model.rules[r].law.compile()).collect(),
            plans: (0..slot_rule.len())
                .map(|j| SlotPlan::of(&slot_reactants[j]))
                .collect(),
            // The dependency graph never lists a zero-rate rule (compiled
            // deps by construction, received ones by `validate_for`), so
            // every affected rule has a slot.
            affects: Rows::from_rows(slot_rules().map(|r| {
                deps.same_site_affected(r)
                    .iter()
                    .map(|&q| rule_slot[q as usize])
            })),
            reactants: slot_reactants,
            rule: slot_rule,
        };
        debug_assert!(slots.affects.entries.iter().all(|&j| j != u32::MAX));

        let initial: Vec<u64> = (0..ns as u32)
            .map(|raw| model.initial.atoms.count(Species::from_raw(raw)))
            .collect();
        let observables = model
            .observables
            .iter()
            .map(|o| {
                let reads_root = match o.site {
                    ObservableSite::Everywhere | ObservableSite::TopOnly => true,
                    ObservableSite::AtLabel(label) => label == Label::TOP,
                };
                let dynamic = reads_root.then(|| index_of(o.species));
                ObsPlan {
                    dynamic,
                    offset: o.eval(&model.initial) - dynamic.map_or(0, |i| initial[i]),
                }
            })
            .collect();

        // Per-species rows (g pairs, incidence) via counting sort: rules
        // land in ascending rule order per species, as the old per-species
        // append produced.
        let mut counts = vec![0u32; ns];
        for ri in 0..nrules {
            for &(i, _) in &reactants[ri] {
                counts[i] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(ns + 1);
        offsets.push(0u32);
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let total = *offsets.last().unwrap() as usize;
        let mut g_entries = vec![(0u64, 0u64); total];
        let mut inc_entries = vec![0usize; total];
        let mut cursor: Vec<u32> = offsets[..ns].to_vec();
        for ri in 0..nrules {
            let r = &reactants[ri];
            let order: u64 = r.iter().map(|&(_, n)| n).sum();
            for &(i, k) in r {
                let at = cursor[i] as usize;
                g_entries[at] = (order, k);
                inc_entries[at] = ri;
                cursor[i] += 1;
            }
        }
        let g_pairs = Rows::from_parts(offsets.clone(), g_entries);
        let incidence = Rows::from_parts(offsets, inc_entries);
        let g_const = (0..ns)
            .map(|i| {
                let mut g: f64 = 1.0;
                for &(order, k) in &g_pairs[i] {
                    g = g.max(match (order, k) {
                        (1, _) => 1.0,
                        (2, 1) => 2.0,
                        (3, 1) => 3.0,
                        // Copy-number-dependent entries: no constant g.
                        (2, 2) | (3, 2) | (3, 3) => return f64::NAN,
                        (o, _) => o as f64,
                    });
                }
                g
            })
            .collect();
        FlatModel {
            source: Source {
                initial: model.initial.clone(),
                observables: model.observables.clone(),
            },
            initial,
            reactants,
            delta,
            rates,
            slots,
            observables,
            g_pairs,
            g_const,
            incidence,
        }
    }

    /// Whether this form is what [`compile`](Self::compile) would produce
    /// for `model` with the deps it was compiled with — i.e. `model` agrees
    /// with the model it was compiled from in everything the form holds
    /// and the deps do not cover: initial term, observables, rate values
    /// and the laws of the live rules. Linear compares, no allocation: this
    /// runs once per engine construction.
    pub fn compiled_from(&self, model: &Model) -> bool {
        self.source.initial == model.initial
            && self.source.observables == model.observables
            && self.initial.len() == species_space(model)
            && self.rates.len() == model.rules.len()
            && (self.rates.iter().zip(&model.rules))
                .all(|(r, rule)| r.to_bits() == rule.rate.to_bits())
            && (self.slots.rule.iter().zip(&self.slots.laws))
                .all(|(&r, law)| *law == model.rules[r as usize].law.compile())
    }

    /// Flat compilations this thread has performed — the test hook
    /// pinning "compiled once per [`ModelDeps`], never per instance".
    #[cfg(test)]
    pub fn thread_compile_count() -> u64 {
        FLAT_COMPILE_COUNT.with(std::cell::Cell::get)
    }

    /// Number of rules.
    pub fn rules(&self) -> usize {
        self.rates.len()
    }

    /// Length of every state vector (see the `initial` field).
    pub fn species_len(&self) -> usize {
        self.initial.len()
    }

    /// The root counts of the initial term, per species index.
    pub fn initial_counts(&self) -> &[u64] {
        &self.initial
    }

    /// The initial species-count vector, in the leaping engines' signed
    /// representation.
    pub fn initial_state(&self) -> Vec<i64> {
        self.initial.iter().map(|&c| c as i64).collect()
    }

    /// Propensity of exact-tier slot `slot` under `count` (see
    /// [`exact_propensity`]).
    #[inline]
    pub fn slot_propensity(&self, slot: usize, count: impl Fn(usize) -> u64) -> f64 {
        exact_propensity(
            &self.slots.reactants[slot],
            self.slots.rates[slot],
            &self.slots.laws[slot],
            count,
        )
    }

    /// Evaluates the model's observables on a flat state into `out`
    /// (cleared first): each one's root count under `count` plus its
    /// constant offset — equal to `Model::eval_observables` on the initial
    /// term with its root atoms replaced by the state, for every
    /// [`ObservableSite`]. The one observable evaluation of every
    /// count-stepping engine.
    #[inline]
    pub fn observe_into(&self, count: impl Fn(usize) -> u64, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.observables
                .iter()
                .map(|o| o.offset + o.dynamic.map_or(0, &count)),
        );
    }

    /// Mass-action propensity of rule `r` in `state`: rate times the
    /// product of per-reactant binomial selection counts (the same `h`
    /// the tree-matching engines compute on flat terms).
    pub fn propensity(&self, state: &[i64], r: usize) -> f64 {
        let mut h = 1.0;
        for &(i, k) in &self.reactants[r] {
            let n = state[i];
            if n < k as i64 {
                return 0.0;
            }
            h *= cwc::multiset::binomial(n as u64, k) as f64;
        }
        self.rates[r] * h
    }

    /// All propensities of `state`, written into a reusable buffer in
    /// rule order (the leaping engines' per-transition path).
    pub fn propensities_into(&self, state: &[i64], out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.rules()).map(|r| self.propensity(state, r)));
    }

    /// The Cao–Gillespie–Petzold highest-order factor `g_i` for species
    /// `i`: the largest correction over reactions consuming `i`, so that
    /// a relative change `epsilon / g_i` in `x_i` bounds the relative
    /// change of every propensity (Cao, Gillespie & Petzold 2006, eq. 27).
    fn g_factor(&self, i: usize, x: i64) -> f64 {
        // Constant-g fast path: same bits as the table walk below (each
        // entry it folds is the same literal the walk would produce).
        let g = self.g_const[i];
        if !g.is_nan() {
            return g;
        }
        let xf = x as f64;
        let mut g: f64 = 1.0;
        for &(order, k) in &self.g_pairs[i] {
            let gr = match (order, k) {
                (1, _) => 1.0,
                (2, 1) => 2.0,
                (2, 2) if x > 1 => 2.0 + 1.0 / (xf - 1.0),
                (2, 2) => 3.0,
                (3, 1) => 3.0,
                (3, 2) if x > 1 => 1.5 * (2.0 + 1.0 / (xf - 1.0)),
                (3, 2) => 4.5,
                (3, 3) if x > 2 => 3.0 + 1.0 / (xf - 1.0) + 2.0 / (xf - 2.0),
                (3, 3) => 6.0,
                // Higher orders: the coarse bound g = order is standard.
                (o, _) => o as f64,
            };
            g = g.max(gr);
        }
        g
    }

    /// The CGP adaptive leap bound: the largest `tau` such that the
    /// expected relative change of every propensity over the reactions
    /// selected by `include` stays within `epsilon`, accumulating into a
    /// reusable [`CgpScratch`] (the adaptive engine computes the bound on
    /// every transition draw; this keeps that path allocation-light).
    /// Returns `f64::INFINITY` when no included reaction moves any
    /// species (nothing bounds the leap).
    ///
    /// Per species `i` touched by an included reaction, with
    /// `mu_i = Σ_r d_ri a_r` and `sigma2_i = Σ_r d_ri² a_r`:
    /// `tau ≤ min(max(εx_i/g_i, 1)/|mu_i|, max(εx_i/g_i, 1)²/sigma2_i)`.
    pub fn cgp_tau_with<F>(
        &self,
        scratch: &mut CgpScratch,
        state: &[i64],
        props: &[f64],
        epsilon: f64,
        include: F,
    ) -> f64
    where
        F: Fn(usize) -> bool,
    {
        let n = self.species_len();
        let mu = &mut scratch.mu;
        let sigma2 = &mut scratch.sigma2;
        mu.clear();
        mu.resize(n, 0.0);
        sigma2.clear();
        sigma2.resize(n, 0.0);
        for (r, &a) in props.iter().enumerate() {
            if a <= 0.0 || !include(r) {
                continue;
            }
            for &(i, d) in &self.delta[r] {
                let df = d as f64;
                mu[i] += df * a;
                sigma2[i] += df * df * a;
            }
        }
        self.cgp_species_tau(scratch, state, epsilon)
    }

    /// [`cgp_tau_with`](Self::cgp_tau_with) over a pre-filtered rule set:
    /// `rules` must yield exactly the reactions the closure variant would
    /// keep (`a > 0` and included) — the adaptive hot path feeds it the
    /// enabled∧non-critical mask iterator, skipping the full-width scan.
    ///
    /// Sparse on both ends: only species actually touched by a yielded
    /// rule are accumulated, minimised over and re-zeroed, so the cost is
    /// O(yielded stoichiometry), not O(species). Bit-identical to the
    /// closure variant: the surviving rules accumulate in the same order
    /// per species, and the final fold is a minimum over per-species
    /// bounds — order-independent for the non-NaN values both compute.
    ///
    /// Contract: `scratch.mu`/`scratch.sigma2` are all-zero between
    /// calls (this function restores that before returning; resizing
    /// zero-fills). Callers switching a scratch over from
    /// [`cgp_tau_with`] must reset it first.
    pub(crate) fn cgp_tau_masked(
        &self,
        scratch: &mut CgpScratch,
        state: &[i64],
        props: &[f64],
        epsilon: f64,
        rules: impl Iterator<Item = usize>,
    ) -> f64 {
        let n = self.species_len();
        if scratch.mu.len() != n {
            scratch.mu.clear();
            scratch.mu.resize(n, 0.0);
            scratch.sigma2.clear();
            scratch.sigma2.resize(n, 0.0);
        }
        scratch.touched.clear();
        for r in rules {
            let a = props[r];
            debug_assert!(a > 0.0, "masked CGP fed a disabled rule");
            for &(i, d) in &self.delta[r] {
                let df = d as f64;
                if scratch.mu[i] == 0.0 && scratch.sigma2[i] == 0.0 {
                    scratch.touched.push(i);
                }
                scratch.mu[i] += df * a;
                scratch.sigma2[i] += df * df * a;
            }
        }
        let mut tau = f64::INFINITY;
        for &i in &scratch.touched {
            let (mu, sigma2) = (scratch.mu[i], scratch.sigma2[i]);
            if mu == 0.0 && sigma2 == 0.0 {
                continue;
            }
            let bound = (epsilon * state[i] as f64 / self.g_factor(i, state[i])).max(1.0);
            if mu != 0.0 {
                tau = tau.min(bound / mu.abs());
            }
            if sigma2 > 0.0 {
                tau = tau.min(bound * bound / sigma2);
            }
        }
        for &i in &scratch.touched {
            scratch.mu[i] = 0.0;
            scratch.sigma2[i] = 0.0;
        }
        tau
    }

    /// The shared per-species minimisation step of the CGP bound.
    fn cgp_species_tau(&self, scratch: &CgpScratch, state: &[i64], epsilon: f64) -> f64 {
        let mut tau = f64::INFINITY;
        for (i, &s) in state.iter().enumerate().take(self.species_len()) {
            let (mu, sigma2) = (scratch.mu[i], scratch.sigma2[i]);
            if mu == 0.0 && sigma2 == 0.0 {
                continue;
            }
            let bound = (epsilon * s as f64 / self.g_factor(i, s)).max(1.0);
            if mu != 0.0 {
                tau = tau.min(bound / mu.abs());
            }
            if sigma2 > 0.0 {
                tau = tau.min(bound * bound / sigma2);
            }
        }
        tau
    }
}

/// Reusable per-species accumulators for [`FlatModel::cgp_tau_with`] and
/// its sparse sibling `cgp_tau_masked` (which also tracks the touched
/// species so it can restore the all-zero invariant in O(touched)).
#[derive(Debug, Clone, Default)]
pub(crate) struct CgpScratch {
    mu: Vec<f64>,
    sigma2: Vec<f64>,
    touched: Vec<usize>,
}

/// Poisson sampling: Knuth's product method for small λ, normal
/// approximation (Box–Muller) for large λ.
pub(crate) fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0);
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // N(λ, λ) approximation, clamped at zero.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = lambda + lambda.sqrt() * z;
        if v < 0.0 {
            0
        } else {
            v.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::sim_rng;
    use cwc::model::Model;
    use std::sync::Arc;

    fn schlogl_like() -> (Model, Arc<ModelDeps>) {
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
        let deps = Arc::new(ModelDeps::compile(&m));
        (m, deps)
    }

    #[test]
    fn compile_matches_model_shape() {
        let (m, deps) = schlogl_like();
        let flat = FlatModel::compile(&m, &deps);
        assert_eq!(flat.rules(), 4);
        assert_eq!(flat.species_len(), 1);
        let state = flat.initial_state();
        assert_eq!(state, vec![250]);
        // Trimolecular propensity is rate * C(250, 3).
        let expected = 1e-4 * cwc::multiset::binomial(250, 3) as f64;
        assert!((flat.propensity(&state, 1) - expected).abs() < 1e-9 * expected);
    }

    #[test]
    fn rejection_names_rule_and_engine() {
        let mut m = Model::new("c");
        m.rule("transport")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let deps = Arc::new(ModelDeps::compile(&m));
        assert!(!FlatModel::accepts(&m));
        assert!(deps.flat(&m).is_none());
        let err = mass_action_flat(&m, &deps, "adaptive tau-leaping").unwrap_err();
        assert_eq!(err.rule(), "transport");
        let msg = err.to_string();
        assert!(msg.contains("`transport`"), "{msg}");
        assert!(msg.contains("adaptive tau-leaping"), "{msg}");
    }

    #[test]
    fn flat_form_is_compiled_once_per_deps_not_per_engine() {
        use crate::batch::BatchedSsaEngine;
        use crate::engine::EngineKind;
        let (m, deps) = schlogl_like();
        let model = Arc::new(m);
        let before = FlatModel::thread_compile_count();
        let kinds = [
            EngineKind::Ssa,
            EngineKind::FirstReaction,
            EngineKind::TauLeap { tau: 0.01 },
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            EngineKind::Batched { width: 4 },
        ];
        for instance in 0..64 {
            let kind = kinds[instance as usize % kinds.len()];
            kind.build_with_deps(Arc::clone(&model), Arc::clone(&deps), 1, instance)
                .unwrap();
        }
        BatchedSsaEngine::with_deps(Arc::clone(&model), Arc::clone(&deps), 1, 0, 8).unwrap();
        assert_eq!(FlatModel::thread_compile_count(), before + 1);
        // A clone of the deps carries the compiled form along.
        let cloned = ModelDeps::clone(&deps);
        assert!(cloned.flat(&model).is_some());
        assert_eq!(FlatModel::thread_compile_count(), before + 1);
    }

    #[test]
    fn deps_shared_across_models_serve_each_model_its_own_flat_form() {
        use crate::engine::EngineKind;
        // Same rules, so the same deps; a different initial term, rate
        // value and observable list — everything the deps never looked at.
        let (m1, deps) = schlogl_like();
        let mut m2 = m1.clone();
        let x = m2.species("X");
        m2.initial = Default::default();
        m2.initial.add_atoms(x, 40);
        m2.rules[3].rate = 7.0;
        m2.observe_at("X again", x, ObservableSite::TopOnly);
        assert_eq!(*deps, ModelDeps::compile(&m2));
        let (m1, m2) = (Arc::new(m1), Arc::new(m2));

        // The first model an engine is built for owns the cache ...
        let cached = deps.flat(&m1).unwrap();
        assert!(cached.compiled_from(&m1) && !cached.compiled_from(&m2));
        assert!(Arc::ptr_eq(&cached, &deps.flat(&m1).unwrap()));
        // ... and the other one still runs on its own state, rates and
        // observables, exactly as with deps of its own.
        let own = deps.flat(&m2).unwrap();
        assert!(own.compiled_from(&m2) && !Arc::ptr_eq(&own, &cached));
        assert_eq!(own.initial_counts(), &[40]);
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.01 },
            EngineKind::Batched { width: 2 },
        ] {
            let run = |deps: Arc<ModelDeps>| {
                let mut engine = kind.build_with_deps(Arc::clone(&m2), deps, 5, 0).unwrap();
                let mut clock = crate::ssa::SampleClock::new(0.0, 0.25);
                let mut samples = Vec::new();
                let events =
                    engine.run_sampled(1.0, &mut clock, |t, v| samples.push((t, v.to_vec())));
                (events, samples)
            };
            let shared = run(Arc::clone(&deps));
            assert_eq!(shared.1[0].1, vec![40, 40], "{kind:?}");
            assert_eq!(shared, run(Arc::new(ModelDeps::compile(&m2))), "{kind:?}");
        }
    }

    #[test]
    fn slots_skip_zero_rate_rules_and_map_the_dependency_graph() {
        let mut m = Model::new("z");
        let a = m.species("A");
        m.rule("dead").consumes("A", 1).rate(0.0).build().unwrap();
        m.rule("a_to_b")
            .consumes("A", 1)
            .produces("B", 1)
            .rate(1.0)
            .build()
            .unwrap();
        m.rule("b_out").consumes("B", 1).rate(2.0).build().unwrap();
        m.initial.add_atoms(a, 3);
        let deps = ModelDeps::compile(&m);
        let flat = FlatModel::compile(&m, &deps);
        assert_eq!(flat.rules(), 3);
        assert_eq!(flat.slots.rule, vec![1, 2]);
        assert_eq!(flat.slots.rates, vec![1.0, 2.0]);
        // a_to_b moves A and B: both live slots; b_out moves B only.
        assert_eq!(&flat.slots.affects[0], &[0, 1]);
        assert_eq!(&flat.slots.affects[1], &[1]);
        assert_eq!(flat.slot_propensity(0, |sp| flat.initial_counts()[sp]), 3.0);
        assert_eq!(flat.slot_propensity(1, |sp| flat.initial_counts()[sp]), 0.0);
    }

    #[test]
    fn g_factor_covers_the_cgp_table() {
        let (m, deps) = schlogl_like();
        let flat = FlatModel::compile(&m, &deps);
        // X appears as reactant of order 1 (out), order 2 k=2 (auto) and
        // order 3 k=3 (tri): the trimolecular term dominates.
        let g = flat.g_factor(0, 250);
        let expected = 3.0 + 1.0 / 249.0 + 2.0 / 248.0;
        assert!((g - expected).abs() < 1e-12, "g = {g}");
        // Tiny populations use the capped constants, no division by zero.
        assert!(flat.g_factor(0, 1).is_finite());
        assert!(flat.g_factor(0, 2).is_finite());
    }

    #[test]
    fn cgp_tau_scales_with_epsilon_and_excludes_reactions() {
        let (m, deps) = schlogl_like();
        let flat = FlatModel::compile(&m, &deps);
        let state = flat.initial_state();
        let mut props = Vec::new();
        flat.propensities_into(&state, &mut props);
        let mut scratch = CgpScratch::default();
        let t1 = flat.cgp_tau_with(&mut scratch, &state, &props, 0.01, |_| true);
        let t5 = flat.cgp_tau_with(&mut scratch, &state, &props, 0.05, |_| true);
        assert!(t1 > 0.0 && t1.is_finite());
        assert!(t5 > t1, "larger epsilon must allow larger leaps");
        // Excluding every reaction leaves the leap unbounded.
        assert_eq!(
            flat.cgp_tau_with(&mut scratch, &state, &props, 0.05, |_| false),
            f64::INFINITY
        );
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = sim_rng(1, 1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut rng = sim_rng(2, 1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 200.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 200.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = sim_rng(3, 1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }
}
