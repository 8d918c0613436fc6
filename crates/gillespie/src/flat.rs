//! The compiled flat form of a model: what every engine that steps on
//! species counts instead of a term reads.
//!
//! A model is *flat* when every rule is compartment-free and applies at
//! the top level — a property of the input (`FlatModel::accepts`). Its
//! term then collapses to a `u64` species-count vector indexed by
//! [`Species::raw`], and one compiled `FlatModel` (crate-private, cached
//! in the model's [`ModelDeps`] by `ModelDeps::flat`, shared by `Arc`,
//! never rebuilt per instance) serves both tiers through one form:
//!
//! - **one row set** — one *slot* per rule with a non-zero rate, in rule
//!   order, holding its reactants, net stoichiometry, rate, kinetic law
//!   (compiled once here into a [`CompiledLaw`], so a refresh never
//!   recomputes `kⁿ` and takes integral Hill powers without libm) and the
//!   slot-to-slot affected list of the dependency graph. A zero-rate rule
//!   has no slot, so it has no effect on any engine;
//! - **one formula** — `exact_propensity`, the exact `u64` binomial
//!   product handed to the compiled law, which every count-stepping
//!   engine reads its propensities from;
//! - **one observable plan**.
//!
//! The **exact tier** — the dense core of [`crate::ssa::SsaEngine`], and
//! through it every replica of the batched kind and the exact steps of
//! the hybrid — steps on exactly that. The **leaping tier** — adaptive
//! tau-leaping ([`crate::adaptive`]) and the leap phase of the direct
//! method's optional leap policy (the hybrid kind,
//! [`SsaEngine::with_leap`](crate::ssa::SsaEngine::with_leap)) — adds
//! the Cao–Gillespie–Petzold step-size bound: one sparse
//! `FlatModel::cgp_tau` over the slot set a caller names, which the
//! adaptive hot path, its full-recompute replica and the leap policy all
//! call. Its `g_i` factors and the species-to-slot incidence
//! lists are built over the same slots. Its committed state is the same
//! `u64` count vector; only a leap's candidate values are signed, since
//! that is where a negative count is detected.
//!
//! One acceptance rule serves every kind: a model is flat or it is not.
//! The leaping engines obtain the shared form through `flat_form`, which
//! derives its refusal from the predicate `FlatModel::accepts` is, naming
//! the first non-flat rule and the refusing engine in a
//! [`FlatModelError`] the config layer surfaces verbatim. Every kinetic
//! law runs on every kind.
//!
//! ## The step-size bound covers every kinetic law
//!
//! CGP bound a leap so that no propensity moves by more than a relative
//! `ε`, and they get there one species at a time. To first order a
//! propensity `a_j` moves by `Σ_i s_ji |Δx_i / x_i|`, where
//! `s_ji = |∂ ln a_j / ∂ ln x_i|` is its log-sensitivity to species `i`.
//! Write `S_j = Σ_i s_ji`. If every species stays within
//! `|Δx_i| ≤ ε x_i / g_i`, with `g_i ≥ S_j` for every slot `j` that reads
//! `i`, then `a_j` moves by at most `Σ_i s_ji ε / S_j = ε`. For mass action
//! `S_j` is the reaction order (CGP's "highest order of reaction", with
//! their copy-number corrections when a reactant is taken twice or three
//! times), which is the `(order, copies)` table of `g_factor`.
//!
//! A kinetic law multiplies the binomial product by a factor whose
//! log-sensitivity has a closed-form bound in the one species it reads:
//!
//! - both Hill laws: `|∂ ln a / ∂ ln c| = n cⁿ / (kⁿ + cⁿ) ≤ n` for
//!   repression, `n kⁿ / (kⁿ + cⁿ) ≤ n` for activation. A Hill slot's
//!   `S_j` is at most its reactant order plus `n`, so compilation counts
//!   it at order `order + ⌈n⌉`, for its reactants and its modifier alike;
//! - `Saturating`: its value `rate · c / (km + c)` ignores `h`, and its
//!   sensitivity in the substrate is `km / (km + c) ≤ 1`, which the floor
//!   `g_i ≥ 1` already covers. It adds no order; the slot's reactant
//!   entries over-cover a value that does not read them.
//!
//! Compilation folds these terms into `g_pairs` and `g_const`, and lists a
//! law-reading slot under its modifier in `incidence` too: a change in the
//! modifier moves the propensity exactly as a change in a reactant does.
//! A mass-action model compiles to the tables it always did, so its
//! per-draw path reads the same values and keeps every bit. Critical
//! classification reads only the net stoichiometry, and a modifier the
//! rule does not consume has none, so it does not change.
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

use crate::deps::ModelDeps;

/// Error constructing a leaping engine (adaptive tau-leaping or the
/// hybrid SSA/tau engine) on a model that is not flat: one of its rules
/// has compartment patterns or productions, or applies below the top
/// level — a rule `FlatModel::accepts` refuses.
///
/// It names the first such rule, in rule order, *and* the engine that
/// refused it, so a config-level failure pinpoints the model line to fix.
/// Every kinetic law is accepted, and the direct method accepts these
/// models too; only the leaping state reduction requires flatness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatModelError {
    /// Engine that refused the model.
    pub engine: &'static str,
    /// Name of the refused rule.
    pub rule: String,
}

impl std::fmt::Display for FlatModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FlatModelError { engine, rule } = self;
        write!(
            f,
            "rule `{rule}` uses compartments or applies inside one; {engine} needs a flat model"
        )
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
    /// One row per item of `rows`, in order.
    pub(crate) fn from_rows<R: IntoIterator<Item = T>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut out = Rows {
            offsets: vec![0],
            entries: Vec::new(),
        };
        for row in rows {
            out.entries.extend(row);
            out.offsets.push(out.entries.len() as u32);
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
///
/// Every per-reaction row is indexed by *slot*: one per rule with a
/// non-zero rate, in rule order — the order of the propensity row, which
/// the golden fingerprints pin — so no step loop maps between two index
/// spaces.
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
    /// Slot → slots whose propensity a firing of it can move: the
    /// dependency graph's same-site affected list, mapped to slots
    /// (ascending, so the first entry is the lowest stale slot).
    pub affects: Rows<u32>,
    /// One plan per model observable, in registration order.
    observables: Vec<ObsPlan>,
    /// Per-species `(order, copies required)` pairs over the slots whose
    /// propensity reads that species (row for row with `incidence`) — the
    /// static inputs of the CGP `g_i` factor, precomputed so the
    /// tau-selection hot path avoids an O(slots × reactants) rescan per
    /// species. The order is the slot's reactant order plus its law's
    /// extra order; a law's modifier that is not a reactant takes zero
    /// copies (see the module docs).
    g_pairs: Rows<(u64, u64)>,
    /// Per-species CGP `g_i` when it does not depend on the copy number
    /// (no order-2/3 pair needing ≥2 copies of the species), `NaN` when
    /// it does. Most models are first-order in each reactant, making the
    /// per-draw `g_factor` table walk a constant load on the adaptive hot
    /// path.
    g_const: Vec<f64>,
    /// Species → slots whose *propensity depends on* that species: the
    /// slots consuming it and the slots whose kinetic law reads it. When
    /// a transition changes species `i`, exactly the slots in
    /// `incidence[i]` can change propensity — the adaptive engine's
    /// O(affected) per-transition refresh reads this.
    pub incidence: Rows<usize>,
}

#[cfg(test)]
std::thread_local! {
    /// Flat compilations performed by this thread (see
    /// [`FlatModel::thread_compile_count`]).
    static FLAT_COMPILE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The propensity of one slot, for every count-stepping engine — the
/// tree matcher's `h` replayed on dense counts: the exact `u64` product
/// of per-reactant binomial selection counts (saturating, zero as soon as
/// a reactant is short), handed to the rule's compiled kinetic law
/// ([`CompiledLaw`], the reference [`RateLaw::propensity_with`]'s bits)
/// with a single float cast, then the positive clamp. The definition the
/// dense core reproduces bit-for-bit; `count` looks a species index up in
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

/// The shared flat form of `model` for a leaping engine (`engine` is the
/// name the refusal carries).
///
/// # Errors
///
/// Returns the [`FlatModelError`] of the first rule, in rule order, that
/// `FlatModel::accepts` refuses.
pub(crate) fn flat_form(
    model: &Model,
    deps: &ModelDeps,
    engine: &'static str,
) -> Result<Arc<FlatModel>, FlatModelError> {
    match FlatModel::refused_rule(model) {
        Some(rule) => Err(FlatModelError {
            engine,
            rule: rule.name.clone(),
        }),
        None => Ok(deps.flat(model).expect("an accepted model has a flat form")),
    }
}

/// What a slot's kinetic law reads beyond its reactants: the species
/// index of its modifier and the law's extra order in the CGP bound —
/// `⌈n⌉` for a Hill law, none for `Saturating` (see the module docs).
fn law_input(law: &RateLaw) -> Option<(usize, u64)> {
    match *law {
        RateLaw::MassAction => None,
        RateLaw::HillRepression {
            inhibitor: s, n, ..
        }
        | RateLaw::HillActivation {
            activator: s, n, ..
        } => Some((s.raw() as usize, n.ceil() as u64)),
        RateLaw::Saturating { substrate, .. } => Some((substrate.raw() as usize, 0)),
    }
}

/// CGP's `g` for one `(order, copies)` pair at copy number `x`: the
/// order, corrected when the species is taken twice or three times by an
/// order-2/3 reaction (capped constants for tiny `x`, no division by
/// zero). Higher orders take the coarse bound `g = order`.
fn pair_g((order, k): (u64, u64), x: u64) -> f64 {
    let xf = x as f64;
    match (order, k) {
        (1, _) => 1.0,
        (2, 1) => 2.0,
        (2, 2) if x > 1 => 2.0 + 1.0 / (xf - 1.0),
        (2, 2) => 3.0,
        (3, 1) => 3.0,
        (3, 2) if x > 1 => 1.5 * (2.0 + 1.0 / (xf - 1.0)),
        (3, 2) => 4.5,
        (3, 3) if x > 2 => 3.0 + 1.0 / (xf - 1.0) + 2.0 / (xf - 2.0),
        (3, 3) => 6.0,
        (o, _) => o as f64,
    }
}

impl FlatModel {
    /// The first rule of `model`, in rule order, that keeps it from being
    /// flat: one with compartment patterns or productions, or one applying
    /// below the top level.
    fn refused_rule(model: &Model) -> Option<&Rule> {
        (model.rules.iter()).find(|rule| !rule.is_flat() || rule.site != Label::TOP)
    }

    /// Whether `model` is flat: every rule compartment-free and applying
    /// at the top level.
    pub fn accepts(model: &Model) -> bool {
        Self::refused_rule(model).is_none()
    }

    /// Compiles the flat form of `model` (which [`accepts`](Self::accepts)
    /// must hold for), taking net stoichiometry and the affected lists
    /// from the shared [`ModelDeps`] compilation. Called once per
    /// [`ModelDeps`] and model (by [`ModelDeps::flat`]).
    pub fn compile(model: &Model, deps: &ModelDeps) -> Self {
        debug_assert!(Self::accepts(model));
        #[cfg(test)]
        FLAT_COMPILE_COUNT.with(|c| c.set(c.get() + 1));
        // The dense index space is the alphabet: a validated model holds
        // no handle beyond it (`Model::validate` refuses a dangling one).
        let ns = model.alphabet.species_count();
        let index_of = |s: Species| s.raw() as usize;
        let nrules = model.rules.len();

        // The slots: the rules that ever enter a propensity row.
        let rule: Vec<u32> = (0..nrules as u32)
            .filter(|&r| model.rules[r as usize].rate != 0.0)
            .collect();
        let mut rule_slot = vec![u32::MAX; nrules];
        for (j, &r) in rule.iter().enumerate() {
            rule_slot[r as usize] = j as u32;
        }
        let slot_rules = || rule.iter().map(|&r| &model.rules[r as usize]);
        let reactants = Rows::from_rows(
            slot_rules().map(|rule| rule.lhs.atoms.iter().map(|(s, n)| (index_of(s), n))),
        );
        // Net stoichiometry straight from the compiled dependency info
        // (ascending species order, like the indices).
        let delta = Rows::from_rows(rule.iter().map(|&r| {
            deps.rule(r as usize)
                .site_delta
                .iter()
                .map(|&(s, v)| (index_of(s), v))
        }));
        let rates: Vec<f64> = slot_rules().map(|rule| rule.rate).collect();
        let laws = slot_rules().map(|rule| rule.law.compile()).collect();
        // The dependency graph never lists a zero-rate rule (compiled deps
        // by construction, received ones by `validate_for`), so every
        // affected rule has a slot.
        let affects = Rows::from_rows(rule.iter().map(|&r| {
            deps.same_site_affected(r as usize)
                .iter()
                .map(|&q| rule_slot[q as usize])
        }));
        debug_assert!(affects.entries.iter().all(|&j| j != u32::MAX));

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

        // Per-species rows (g pairs, incidence), slots ascending: what
        // each slot's propensity reads, with its CGP pair — its reactants,
        // then its law's modifier unless that is a reactant too.
        let mut by_species = vec![Vec::new(); ns];
        for (j, rule) in slot_rules().enumerate() {
            let r = &reactants[j];
            let input = law_input(&rule.law);
            let order = r.iter().map(|&(_, n)| n).sum::<u64>() + input.map_or(0, |(_, e)| e);
            for &(i, k) in r {
                by_species[i].push((j, (order, k)));
            }
            if let Some((m, _)) = input.filter(|&(m, _)| r.iter().all(|&(i, _)| i != m)) {
                by_species[m].push((j, (order, 0)));
            }
        }
        let g_pairs = Rows::from_rows(by_species.iter().map(|row| row.iter().map(|s| s.1)));
        let incidence = Rows::from_rows(by_species.iter().map(|row| row.iter().map(|s| s.0)));
        let g_const = (0..ns)
            .map(|i| {
                let pairs = &g_pairs[i];
                if (pairs.iter()).any(|&pair| matches!(pair, (2, 2) | (3, 2) | (3, 3))) {
                    return f64::NAN; // copy-number dependent
                }
                pairs
                    .iter()
                    .fold(1.0, |g: f64, &pair| g.max(pair_g(pair, 0)))
            })
            .collect();
        FlatModel {
            source: Source {
                initial: model.initial.clone(),
                observables: model.observables.clone(),
            },
            initial,
            rule,
            reactants,
            delta,
            rates,
            laws,
            affects,
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
        let live = (model.rules.iter().enumerate())
            .filter(|(_, rule)| rule.rate != 0.0)
            .map(|(r, _)| r);
        self.source.initial == model.initial
            && self.source.observables == model.observables
            && self.initial.len() == model.alphabet.species_count()
            && live.eq(self.rule.iter().map(|&r| r as usize))
            && (self.rule.iter().zip(&self.rates).zip(&self.laws)).all(|((&r, rate), law)| {
                let rule = &model.rules[r as usize];
                rate.to_bits() == rule.rate.to_bits() && *law == rule.law.compile()
            })
    }

    /// Flat compilations this thread has performed — the test hook
    /// pinning "compiled once per [`ModelDeps`], never per instance".
    #[cfg(test)]
    pub fn thread_compile_count() -> u64 {
        FLAT_COMPILE_COUNT.with(std::cell::Cell::get)
    }

    /// Number of slots (the rules with a non-zero rate).
    pub fn slots(&self) -> usize {
        self.rule.len()
    }

    /// Length of every state vector (see the `initial` field).
    pub fn species_len(&self) -> usize {
        self.initial.len()
    }

    /// The root counts of the initial term, per species index.
    pub fn initial_counts(&self) -> &[u64] {
        &self.initial
    }

    /// Propensity of slot `slot` under `count` (see [`exact_propensity`]).
    #[inline]
    pub fn slot_propensity(&self, slot: usize, count: impl Fn(usize) -> u64) -> f64 {
        exact_propensity(
            &self.reactants[slot],
            self.rates[slot],
            &self.laws[slot],
            count,
        )
    }

    /// Every slot's propensity under `counts`, in slot order — the one
    /// loop each engine fills a whole propensity row with.
    pub fn slot_propensities<'a>(&'a self, counts: &'a [u64]) -> impl Iterator<Item = f64> + 'a {
        (0..self.slots()).map(move |slot| self.slot_propensity(slot, |sp| counts[sp]))
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

    /// The Cao–Gillespie–Petzold highest-order factor `g_i` for species
    /// `i`: the largest correction over reactions consuming `i`, so that
    /// a relative change `epsilon / g_i` in `x_i` bounds the relative
    /// change of every propensity (Cao, Gillespie & Petzold 2006, eq. 27).
    fn g_factor(&self, i: usize, x: u64) -> f64 {
        // Constant-g fast path: same bits as the walk (the same fold).
        let g = self.g_const[i];
        if !g.is_nan() {
            return g;
        }
        (self.g_pairs[i].iter()).fold(1.0, |g: f64, &pair| g.max(pair_g(pair, x)))
    }

    /// The CGP adaptive leap bound: the largest `tau` such that the
    /// expected relative change of every propensity over the slots
    /// `slots` yields stays within `epsilon`. `slots` must yield enabled
    /// slots (`props[j] > 0`) in ascending order; the leaping engines
    /// pass their enabled non-critical slots (adaptive) or every enabled
    /// slot (hybrid). Returns `f64::INFINITY` when no yielded slot moves
    /// any species (nothing bounds the leap).
    ///
    /// Per species `i` touched by a yielded slot, with
    /// `mu_i = Σ_r d_ri a_r` and `sigma2_i = Σ_r d_ri² a_r`:
    /// `tau ≤ min(max(εx_i/g_i, 1)/|mu_i|, max(εx_i/g_i, 1)²/sigma2_i)`.
    ///
    /// Sparse on both ends: only species actually touched by a yielded
    /// slot are accumulated, minimised over and re-zeroed in the reusable
    /// [`CgpScratch`], so the cost is O(yielded stoichiometry), not
    /// O(species), and the per-draw path allocates nothing. The minimum
    /// over per-species bounds is order-independent, so the bits depend
    /// only on the slot set.
    pub(crate) fn cgp_tau(
        &self,
        scratch: &mut CgpScratch,
        state: &[u64],
        props: &[f64],
        epsilon: f64,
        slots: impl Iterator<Item = usize>,
    ) -> f64 {
        let n = self.species_len();
        if scratch.mu.len() != n {
            scratch.mu.clear();
            scratch.mu.resize(n, 0.0);
            scratch.sigma2.clear();
            scratch.sigma2.resize(n, 0.0);
        }
        scratch.touched.clear();
        for j in slots {
            let a = props[j];
            debug_assert!(a > 0.0, "CGP bound fed a disabled slot");
            for &(i, d) in &self.delta[j] {
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
}

/// Reusable per-species accumulators of `FlatModel::cgp_tau`: all zero
/// between calls, with the species one call touched, so it restores that
/// in O(touched).
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
        assert_eq!(flat.slots(), 4);
        assert_eq!(flat.species_len(), 1);
        let state = flat.initial_counts();
        assert_eq!(state, &[250]);
        // Trimolecular propensity is rate * C(250, 3).
        let expected = 1e-4 * cwc::multiset::binomial(250, 3) as f64;
        assert!((flat.slot_propensity(1, |sp| state[sp]) - expected).abs() < 1e-9 * expected);
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
        let err = flat_form(&m, &deps, "adaptive tau-leaping").unwrap_err();
        assert_eq!(err.rule, "transport");
        let msg = err.to_string();
        assert!(msg.contains("`transport`"), "{msg}");
        assert!(msg.contains("adaptive tau-leaping"), "{msg}");
    }

    #[test]
    fn flat_form_is_compiled_once_per_deps_not_per_engine() {
        use crate::engine::EngineKind;
        let (m, deps) = schlogl_like();
        let model = Arc::new(m);
        let before = FlatModel::thread_compile_count();
        let kinds = [
            EngineKind::Ssa,
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
            EngineKind::AdaptiveTau { epsilon: 0.05 },
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
        assert_eq!(flat.slots(), 2);
        assert_eq!(flat.rule, vec![1, 2]);
        assert_eq!(flat.rates, vec![1.0, 2.0]);
        // a_to_b moves A and B: both live slots; b_out moves B only.
        assert_eq!(&flat.affects[0], &[0, 1]);
        assert_eq!(&flat.affects[1], &[1]);
        // The dead rule reaches neither the CGP inputs nor the incidence
        // lists: A is consumed by a_to_b alone.
        assert_eq!(&flat.incidence[a.raw() as usize], &[0]);
        assert_eq!(flat.g_pairs[a.raw() as usize].len(), 1);
        assert_eq!(flat.slot_propensity(0, |sp| flat.initial_counts()[sp]), 3.0);
        assert_eq!(flat.slot_propensity(1, |sp| flat.initial_counts()[sp]), 0.0);
    }

    #[test]
    fn law_inputs_reach_the_incidence_lists_and_the_cgp_g() {
        // Neurospora's shape plus an activated import: `tx` reads only its
        // Hill modifier, `deg` saturates on its own reactant, `imp` consumes
        // Fc and reads M through a non-integral Hill law.
        let mut m = Model::new("laws");
        let (mrna, fc, fnuc) = (m.species("M"), m.species("Fc"), m.species("Fn"));
        m.rule("tx")
            .produces("M", 1)
            .rate(160.0)
            .repressed_by("Fn", 100.0, 4.0)
            .build()
            .unwrap();
        m.rule("deg")
            .consumes("M", 1)
            .rate(50.0)
            .saturating_on("M", 50.0)
            .build()
            .unwrap();
        m.rule("imp")
            .consumes("Fc", 1)
            .produces("Fn", 1)
            .rate(0.5)
            .activated_by("M", 10.0, 2.5)
            .build()
            .unwrap();
        m.rule("exp")
            .consumes("Fn", 1)
            .produces("Fc", 1)
            .rate(0.6)
            .build()
            .unwrap();
        let flat = FlatModel::compile(&m, &ModelDeps::compile(&m));
        let [mrna, fc, fnuc] = [mrna, fc, fnuc].map(|s| s.raw() as usize);
        assert_eq!(&flat.incidence[mrna], &[1, 2]);
        assert_eq!(&flat.incidence[fc], &[2]);
        assert_eq!(&flat.incidence[fnuc], &[0, 3]);
        // A Hill slot counts at its reactant order plus ⌈n⌉, for its
        // reactants and its modifier; the saturating law adds nothing.
        assert_eq!(&flat.g_pairs[mrna], &[(1, 1), (4, 0)]);
        assert_eq!(&flat.g_pairs[fnuc], &[(4, 0), (1, 1)]);
        for (i, g) in [(mrna, 4.0), (fc, 4.0), (fnuc, 4.0)] {
            assert_eq!(flat.g_factor(i, 100), g);
        }
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
        let state = flat.initial_counts();
        let props: Vec<f64> = flat.slot_propensities(state).collect();
        let mut scratch = CgpScratch::default();
        let mut tau = |eps: f64, slots: &[usize]| {
            flat.cgp_tau(&mut scratch, state, &props, eps, slots.iter().copied())
        };
        let t1 = tau(0.01, &[0, 1, 2, 3]);
        let t5 = tau(0.05, &[0, 1, 2, 3]);
        assert!(t1 > 0.0 && t1.is_finite());
        assert!(t5 > t1, "larger epsilon must allow larger leaps");
        // The scratch is clean again: the same call, the same bits.
        assert_eq!(tau(0.01, &[0, 1, 2, 3]).to_bits(), t1.to_bits());
        // Excluding every reaction leaves the leap unbounded.
        assert_eq!(tau(0.05, &[]), f64::INFINITY);
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
